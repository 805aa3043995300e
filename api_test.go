package weipipe

import (
	"math"
	"sync"
	"testing"
)

func TestPublicAPITrainsAndMatchesSerial(t *testing.T) {
	cfg := Config{Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 6, Seed: 7}
	opts := DefaultOptions(0.01)
	opts.Adam.Eps = 1e-5
	batches := Microbatches(3, 4, 2, 13, 6)
	fn := func(int) []Batch { return batches }

	ref, err := RunCluster(Serial, 1, cfg, opts, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCluster(WeiPipeInterleave, 2, cfg, opts, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Losses[0]-ref.Losses[0]) > 1e-4 {
		t.Fatalf("loss %v vs serial %v", got.Losses[0], ref.Losses[0])
	}
	var maxd float64
	for i := range ref.Weights {
		d := math.Abs(float64(got.Weights[i] - ref.Weights[i]))
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 5e-4 {
		t.Fatalf("weights diverge by %v", maxd)
	}
}

// TestPublicAPIBF16Fabric: a bf16 wire is a fabric choice — RunResilient
// over NewInprocClusterCodec(size, BeltBF16), as the README shows — and it
// halves the belt bytes of the f32 RunCluster run.
func TestPublicAPIBF16Fabric(t *testing.T) {
	cfg := Config{Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 6, Seed: 7}
	opts := DefaultOptions(0.01)
	batches := Microbatches(3, 4, 2, 13, 6)
	fn := func(int) []Batch { return batches }
	f32, err := RunCluster(WZB2, 2, cfg, opts, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	bf16 := func(_, size int) ([]Transport, error) {
		return NewInprocClusterCodec(size, BeltBF16), nil
	}
	res, err := RunResilient(RunSpec{Strategy: WZB2, Model: cfg, Options: opts, World: 2, Iters: 1},
		RunHooks{Batches: fn, Transports: bf16})
	if err != nil {
		t.Fatal(err)
	}
	if f, b := f32.TotalComm().TotalSentBytes(), res.TotalComm().TotalSentBytes(); b >= f {
		t.Fatalf("bf16 fabric sent %d bytes, f32 %d", b, f)
	}
}

func TestPublicAPISimulate(t *testing.T) {
	w := Workload{H: 2048, S: 16384, G: 4, L: 32, N: 32, P: 8, Recompute: true}
	top := NVLinkEthernet(8, 4)
	wp, err := Simulate(WeiPipeInterleave, w, top)
	if err != nil {
		t.Fatal(err)
	}
	f1b, err := Simulate(OneFOneB, w, top)
	if err != nil {
		t.Fatal(err)
	}
	if wp.TokensPerSecPerGPU <= f1b.TokensPerSecPerGPU {
		t.Fatalf("weipipe %v ≤ 1f1b %v on long-context ethernet",
			wp.TokensPerSecPerGPU, f1b.TokensPerSecPerGPU)
	}
	if wp.MemoryGB <= 0 || wp.BubbleRatio < 0 || wp.IterationSeconds <= 0 {
		t.Fatalf("bad sim result %+v", wp)
	}
	// OOM surfaces through the API
	big := Workload{H: 8192, S: 16384, G: 16, L: 32, N: 32, P: 8, Recompute: false}
	r, err := Simulate(ZB2, big, top)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OOM {
		t.Fatal("expected OOM")
	}
}

func TestStrategiesListed(t *testing.T) {
	ss := Strategies()
	if len(ss) < 10 {
		t.Fatalf("only %d strategies", len(ss))
	}
	seen := map[Strategy]bool{}
	for _, s := range ss {
		seen[s] = true
	}
	for _, want := range []Strategy{WeiPipeInterleave, WeiPipeNaive, WZB1, WZB2, OneFOneB, ZB1, ZB2, FSDP, GPipe, DP} {
		if !seen[want] {
			t.Errorf("missing strategy %s", want)
		}
	}
}

func TestHybridTrainerThroughFacade(t *testing.T) {
	cfg := Config{Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 6, Seed: 7}
	opts := DefaultOptions(0.01)
	opts.Adam.Eps = 1e-5
	batches := Microbatches(3, 8, 2, 13, 6)

	ref, err := RunCluster(Serial, 1, cfg, opts, 1, func(int) []Batch { return batches })
	if err != nil {
		t.Fatal(err)
	}
	transports := NewInprocCluster(4)
	losses := make([]float64, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := NewHybridTrainer(transports[r], cfg, opts, 2)
			if err != nil {
				errs[r] = err
				return
			}
			losses[r], errs[r] = tr.TrainIteration(batches)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if math.Abs(losses[0]-ref.Losses[0]) > 1e-4 {
		t.Fatalf("hybrid loss %v vs serial %v", losses[0], ref.Losses[0])
	}
}
