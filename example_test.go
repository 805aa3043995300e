package weipipe_test

import (
	"fmt"

	"weipipe"
)

// ExampleRunCluster trains a tiny model with WeiPipe-Interleave on two
// in-process workers and verifies the run produced a loss.
func ExampleRunCluster() {
	cfg := weipipe.Config{Vocab: 16, Hidden: 8, Layers: 2, Heads: 2, MaxSeq: 8, Seed: 1}
	batches := weipipe.Microbatches(1, 4, 2, cfg.Vocab, cfg.MaxSeq)
	res, err := weipipe.RunCluster(weipipe.WeiPipeInterleave, 2, cfg, weipipe.DefaultOptions(1e-3), 1,
		func(int) []weipipe.Batch { return batches })
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("iterations: %d, weights match model: %v, loss > 0: %v\n",
		len(res.Losses), len(res.Weights) == weipipe.BuildModel(cfg).NumParams(), res.Losses[0] > 0)
	// Output: iterations: 1, weights match model: true, loss > 0: true
}

// ExampleSimulate asks the performance model the paper's headline question:
// does WeiPipe beat 1F1B at long context on an Ethernet-joined cluster?
func ExampleSimulate() {
	w := weipipe.Workload{H: 2048, S: 16384, G: 4, L: 32, N: 64, P: 16, Recompute: true}
	top := weipipe.NVLinkTwoClusters(16)
	wp, _ := weipipe.Simulate(weipipe.WeiPipeInterleave, w, top)
	base, _ := weipipe.Simulate(weipipe.OneFOneB, w, top)
	fmt.Printf("weipipe wins: %v\n", wp.TokensPerSecPerGPU > base.TokensPerSecPerGPU)
	// Output: weipipe wins: true
}

// ExampleGenerate samples greedily from an (untrained) model — the decode
// path is deterministic.
func ExampleGenerate() {
	m := weipipe.BuildModel(weipipe.Config{Vocab: 16, Hidden: 8, Layers: 2, Heads: 2, MaxSeq: 8, Seed: 1})
	a, _ := weipipe.Generate(m, []int{1, 2}, 3, weipipe.GenOptions{})
	b, _ := weipipe.Generate(m, []int{1, 2}, 3, weipipe.GenOptions{})
	fmt.Printf("len: %d, deterministic: %v\n", len(a), fmt.Sprint(a) == fmt.Sprint(b))
	// Output: len: 5, deterministic: true
}

// ExampleSetBackend pins the scalar kernels, the bit-exactness oracle: the
// process otherwise starts on the fastest backend its CPU supports, so
// results compared across machines should pin one.
func ExampleSetBackend() {
	prev := weipipe.BackendName()
	if err := weipipe.SetBackend("scalar"); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("backend:", weipipe.BackendName())
	fmt.Println("unknown name rejected:", weipipe.SetBackend("no-such-backend") != nil)
	_ = weipipe.SetBackend(prev) // the name that was active cannot be unknown
	// Output:
	// backend: scalar
	// unknown name rejected: true
}
