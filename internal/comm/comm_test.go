package comm

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestInprocSendRecv(t *testing.T) {
	c := NewCluster(2)
	t0, t1 := c.Transport(0), c.Transport(1)
	go func() {
		t0.Send(1, Tag{Kind: KindWeight, A: 3, B: 7}, []float32{1, 2, 3})
	}()
	got, err := t1.Recv(0, Tag{Kind: KindWeight, A: 3, B: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestInprocCopiesPayload(t *testing.T) {
	c := NewCluster(2)
	t0, t1 := c.Transport(0), c.Transport(1)
	buf := []float32{1}
	t0.Send(1, Tag{}, buf)
	buf[0] = 99 // mutate after send; receiver must see the original
	got, _ := t1.Recv(0, Tag{})
	if got[0] != 1 {
		t.Fatal("payload aliased across ranks")
	}
}

func TestInprocTagMatching(t *testing.T) {
	c := NewCluster(2)
	t0, t1 := c.Transport(0), c.Transport(1)
	// Send out of order; receives must match by tag, not arrival order.
	t0.Send(1, Tag{Kind: KindAct, A: 2}, []float32{2})
	t0.Send(1, Tag{Kind: KindAct, A: 1}, []float32{1})
	a, _ := t1.Recv(0, Tag{Kind: KindAct, A: 1})
	b, _ := t1.Recv(0, Tag{Kind: KindAct, A: 2})
	if a[0] != 1 || b[0] != 2 {
		t.Fatalf("tag matching broken: %v %v", a, b)
	}
}

func TestInprocFIFOPerTag(t *testing.T) {
	c := NewCluster(2)
	t0, t1 := c.Transport(0), c.Transport(1)
	for i := 0; i < 10; i++ {
		t0.Send(1, Tag{Kind: KindCtl}, []float32{float32(i)})
	}
	for i := 0; i < 10; i++ {
		got, _ := t1.Recv(0, Tag{Kind: KindCtl})
		if got[0] != float32(i) {
			t.Fatalf("FIFO violated: got %v at %d", got[0], i)
		}
	}
}

func TestInprocSelfSend(t *testing.T) {
	c := NewCluster(1)
	tr := c.Transport(0)
	tr.Send(0, Tag{A: 1}, []float32{42})
	got, err := tr.Recv(0, Tag{A: 1})
	if err != nil || got[0] != 42 {
		t.Fatalf("self-send: %v %v", got, err)
	}
}

func TestInprocCloseUnblocksRecv(t *testing.T) {
	c := NewCluster(2)
	t1 := c.Transport(1)
	done := make(chan error, 1)
	go func() {
		_, err := t1.Recv(0, Tag{A: 5})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil error after close")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func TestInprocInvalidRanks(t *testing.T) {
	c := NewCluster(2)
	tr := c.Transport(0)
	if err := tr.Send(5, Tag{}, nil); err == nil {
		t.Fatal("send to invalid rank succeeded")
	}
	if _, err := tr.Recv(-1, Tag{}); err == nil {
		t.Fatal("recv from invalid rank succeeded")
	}
}

// runRanks runs fn on every rank concurrently and fails the test on error.
func runRanks(t *testing.T, n int, fn func(tr Transport) error) {
	t.Helper()
	c := NewCluster(n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(c.Transport(r))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestShardRanges(t *testing.T) {
	r := ShardRanges(10, 3)
	if r[0] != [2]int{0, 3} || r[1] != [2]int{3, 6} || r[2] != [2]int{6, 10} {
		t.Fatalf("ShardRanges = %v", r)
	}
	// total coverage, no overlap, even when p > n
	r2 := ShardRanges(2, 4)
	total := 0
	for _, s := range r2 {
		total += s[1] - s[0]
	}
	if total != 2 {
		t.Fatalf("ShardRanges(2,4) covers %d", total)
	}
}

func TestRingAllReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{1, 5, 16, 33} {
			p, n := p, n
			var mu sync.Mutex
			results := make(map[int][]float32)
			runRanks(t, p, func(tr Transport) error {
				data := make([]float32, n)
				for i := range data {
					data[i] = float32(tr.Rank()*100 + i)
				}
				if err := RingAllReduceSum(tr, data, 1); err != nil {
					return err
				}
				mu.Lock()
				results[tr.Rank()] = data
				mu.Unlock()
				return nil
			})
			// expected: sum over ranks of (r*100 + i)
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					var want float32
					for q := 0; q < p; q++ {
						want += float32(q*100 + i)
					}
					if math.Abs(float64(results[r][i]-want)) > 1e-3 {
						t.Fatalf("p=%d n=%d rank %d elem %d: got %v want %v", p, n, r, i, results[r][i], want)
					}
				}
			}
		}
	}
}

// ReduceScatterSum leaves rank r the full sum of shard ShardOf(r, p), in
// place in its input: the layout of RingAllReduceSum's first phase, and its
// bits — the shard is a subslice of the data the all-reduce would go on to
// gather, summed in the same order.
func TestReduceScatterSum(t *testing.T) {
	for _, p := range []int{1, 2, 4, 5} {
		const n = 23
		var mu sync.Mutex
		results := make(map[int][]float32)
		reduced := make(map[int][]float32)
		runRanks(t, p, func(tr Transport) error {
			data := make([]float32, n)
			for i := range data {
				data[i] = float32(tr.Rank()) + 0.1*float32(i)
			}
			ref := append([]float32(nil), data...)
			shard, err := ReduceScatterSum(tr, data, 2)
			if err != nil {
				return err
			}
			if err := RingAllReduceSum(tr, ref, 3); err != nil {
				return err
			}
			mu.Lock()
			results[tr.Rank()], reduced[tr.Rank()] = shard, ref
			mu.Unlock()
			return nil
		})
		shards := ShardRanges(n, p)
		for r := 0; r < p; r++ {
			rg := shards[ShardOf(r, p)]
			if len(results[r]) != rg[1]-rg[0] {
				t.Fatalf("p=%d rank %d shard len %d want %d", p, r, len(results[r]), rg[1]-rg[0])
			}
			for i, v := range results[r] {
				var want float32
				for q := 0; q < p; q++ {
					want += float32(q) + 0.1*float32(rg[0]+i)
				}
				if math.Abs(float64(v-want)) > 1e-3 {
					t.Fatalf("p=%d rank %d elem %d: got %v want %v", p, r, i, v, want)
				}
				if math.Float32bits(v) != math.Float32bits(reduced[r][rg[0]+i]) {
					t.Fatalf("p=%d rank %d elem %d: %v, all-reduce gives %v", p, r, i, v, reduced[r][rg[0]+i])
				}
			}
		}
	}
}

// AllGather takes rank r's shard as shard ShardOf(r, p) of the vector.
func TestAllGather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		shardLens := make([]int, p)
		for i := range shardLens {
			shardLens[i] = 2 + i // deliberately unequal
		}
		var mu sync.Mutex
		results := make(map[int][]float32)
		runRanks(t, p, func(tr Transport) error {
			mine := make([]float32, shardLens[ShardOf(tr.Rank(), p)])
			for i := range mine {
				mine[i] = float32(tr.Rank()*1000 + i)
			}
			full, err := AllGather(tr, mine, shardLens, 3)
			if err != nil {
				return err
			}
			mu.Lock()
			results[tr.Rank()] = full
			mu.Unlock()
			return nil
		})
		for r := 0; r < p; r++ {
			idx := 0
			for q := 0; q < p; q++ {
				owner := (q - 1 + p) % p
				for i := 0; i < shardLens[q]; i++ {
					if results[r][idx] != float32(owner*1000+i) {
						t.Fatalf("p=%d rank %d: wrong value at %d", p, r, idx)
					}
					idx++
				}
			}
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, root := range []int{0, 1, 3} {
		var mu sync.Mutex
		results := make(map[int][]float32)
		runRanks(t, 4, func(tr Transport) error {
			var data []float32
			if tr.Rank() == root {
				data = []float32{7, 8, 9}
			}
			out, err := Broadcast(tr, root, data, 4)
			if err != nil {
				return err
			}
			mu.Lock()
			results[tr.Rank()] = out
			mu.Unlock()
			return nil
		})
		for r := 0; r < 4; r++ {
			if len(results[r]) != 3 || results[r][0] != 7 || results[r][2] != 9 {
				t.Fatalf("root=%d rank %d got %v", root, r, results[r])
			}
		}
	}
}

func TestBarrier(t *testing.T) {
	var phase sync.Map
	runRanks(t, 4, func(tr Transport) error {
		phase.Store(tr.Rank(), 1)
		if err := Barrier(tr, 5); err != nil {
			return err
		}
		// after the barrier everyone must have stored phase 1
		for r := 0; r < 4; r++ {
			if _, ok := phase.Load(r); !ok {
				t.Errorf("rank %d passed barrier before rank %d entered", tr.Rank(), r)
			}
		}
		return nil
	})
}

func TestAllReduceScalarSum(t *testing.T) {
	runRanks(t, 3, func(tr Transport) error {
		got, err := AllReduceScalarSum(tr, float64(tr.Rank()+1), 6)
		if err != nil {
			return err
		}
		if got != 6 { // 1+2+3
			t.Errorf("rank %d: scalar sum = %v", tr.Rank(), got)
		}
		return nil
	})
}
