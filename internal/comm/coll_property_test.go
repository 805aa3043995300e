package comm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"weipipe/internal/tensor"
)

// Property suite for the ring collectives: for random rank counts, vector
// sizes and values, the results must equal the locally-computed reference.

func runAllRanks(t *testing.T, p int, fn func(tr Transport) error) bool {
	t.Helper()
	c := NewCluster(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(c.Transport(r))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Log(err)
			return false
		}
	}
	return true
}

func TestAllReduceSumProperty(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw%6) + 1
		n := int(nRaw%50) + 1
		rng := tensor.NewRNG(seed)
		inputs := make([][]float32, p)
		want := make([]float64, n)
		for r := 0; r < p; r++ {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.NormFloat64())
				want[i] += float64(inputs[r][i])
			}
		}
		var mu sync.Mutex
		outputs := make([][]float32, p)
		ok := runAllRanks(t, p, func(tr Transport) error {
			buf := append([]float32(nil), inputs[tr.Rank()]...)
			if err := RingAllReduceSum(tr, buf, 1); err != nil {
				return err
			}
			mu.Lock()
			outputs[tr.Rank()] = buf
			mu.Unlock()
			return nil
		})
		if !ok {
			return false
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if math.Abs(float64(outputs[r][i])-want[i]) > 1e-4*float64(p) {
					return false
				}
			}
			// all ranks bit-identical (each element reduced at one rank
			// then broadcast unchanged)
			for i := 0; i < n; i++ {
				if outputs[r][i] != outputs[0][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterThenGatherIsAllReduce(t *testing.T) {
	// Property: reduce-scatter followed by all-gather of the shards equals
	// all-reduce — the decomposition NCCL (and our FSDP) relies on.
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw%5) + 1
		n := int(nRaw%40) + p // ensure n ≥ p
		rng := tensor.NewRNG(seed)
		inputs := make([][]float32, p)
		for r := 0; r < p; r++ {
			inputs[r] = make([]float32, n)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.NormFloat64())
			}
		}
		shards := ShardRanges(n, p)
		lens := make([]int, p)
		for i, s := range shards {
			lens[i] = s[1] - s[0]
		}
		var mu sync.Mutex
		viaRS := make([][]float32, p)
		viaAR := make([][]float32, p)
		ok := runAllRanks(t, p, func(tr Transport) error {
			buf := append([]float32(nil), inputs[tr.Rank()]...)
			shard, err := ReduceScatterSum(tr, buf, 1)
			if err != nil {
				return err
			}
			full, err := AllGather(tr, shard, lens, 2)
			if err != nil {
				return err
			}
			buf2 := append([]float32(nil), inputs[tr.Rank()]...)
			if err := RingAllReduceSum(tr, buf2, 3); err != nil {
				return err
			}
			mu.Lock()
			viaRS[tr.Rank()] = full
			viaAR[tr.Rank()] = buf2
			mu.Unlock()
			return nil
		})
		if !ok {
			return false
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if math.Float32bits(viaRS[r][i]) != math.Float32bits(viaAR[r][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastProperty(t *testing.T) {
	f := func(seed uint64, pRaw, rootRaw, nRaw uint8) bool {
		p := int(pRaw%6) + 1
		root := int(rootRaw) % p
		n := int(nRaw%30) + 1
		rng := tensor.NewRNG(seed)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		var mu sync.Mutex
		out := make([][]float32, p)
		ok := runAllRanks(t, p, func(tr Transport) error {
			var data []float32
			if tr.Rank() == root {
				data = append([]float32(nil), src...)
			}
			got, err := Broadcast(tr, root, data, 1)
			if err != nil {
				return err
			}
			mu.Lock()
			out[tr.Rank()] = got
			mu.Unlock()
			return nil
		})
		if !ok {
			return false
		}
		for r := 0; r < p; r++ {
			for i := 0; i < n; i++ {
				if out[r][i] != src[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
