package main

import (
	"fmt"

	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/pipeline"
)

// Fixed across every workload: a 4-rank ring of a 4-layer model, one
// sequence per microbatch. Only (strategy, fabric, H, S, N) vary, so a
// difference between two workloads is attributable to one of those.
const (
	ranks  = 4
	vocab  = 256
	heads  = 4
	layers = 4
	mbSize = 1 // G
	lr     = 1e-3

	// batchRing is how many distinct microbatch lists a run cycles through.
	// They are generated before set-up so input generation is in no timing.
	batchRing = 16
)

// workload is one benchmark input: a training configuration chosen to load
// a particular set of layers (see README.md for the rationale table).
type workload struct {
	Name     string
	Strategy pipeline.Strategy
	// Partner is the strategy the cross-strategy agreement gate trains on
	// the same shape and seed.
	Partner pipeline.Strategy
	TCP     bool
	H, S, N int
	Why     string
}

// workloads lists the benchmark's inputs in reporting order. BENCHMARK.json
// carries the same names and reasons; the smoke test keeps them in step.
var workloads = []workload{
	{
		Name: "long-wzb2", Strategy: pipeline.StrategyWZB2, Partner: pipeline.Strategy1F1B,
		H: 64, S: 512, N: 4,
		Why: "S=8H in-process: attention and F+B kernels dominate, weights are small; the paper's long-context regime on WeiPipe's best schedule",
	},
	{
		Name: "long-1f1b", Strategy: pipeline.Strategy1F1B, Partner: pipeline.StrategyWZB2,
		H: 64, S: 512, N: 4,
		Why: "same shape and kernels, activation-passing 1F1B: the paper's headline baseline and the control for belt-only changes",
	},
	{
		Name: "wide-wzb2-tcp", Strategy: pipeline.StrategyWZB2, Partner: pipeline.StrategyFSDP, TCP: true,
		H: 256, S: 8, N: 8,
		Why: "3.3M params ride the weight and gradient belts over TCP loopback while a microbatch is 8 tokens: comm, belt scheduling and optimizer dominate",
	},
	{
		Name: "wide-fsdp-tcp", Strategy: pipeline.StrategyFSDP, Partner: pipeline.StrategyWZB2, TCP: true,
		H: 256, S: 8, N: 8,
		Why: "same bytes-heavy shape and fabric used as ring collectives: catches transport changes that help belts and cost collectives",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload to the smoke-test shape: the same code paths at
// sizes where all four workloads finish in a few seconds.
func (w workload) tiny() workload {
	if w.TCP {
		w.H = 32
	} else {
		w.H, w.S = 16, 32
	}
	return w
}

func (w workload) modelConfig(seed uint64) model.Config {
	return model.Config{Vocab: vocab, Hidden: w.H, Layers: layers, Heads: heads, MaxSeq: w.S, Seed: seed}
}

func (w workload) options() pipeline.Options {
	return pipeline.Options{Adam: optim.DefaultAdamW(lr)}
}

// tokensPerStep is N·G·S, the tokens one optimizer step consumes.
func (w workload) tokensPerStep() int { return w.N * mbSize * w.S }

// batches derives the run's microbatch ring from the seed: the program under
// test only ever sees these generated inputs.
func (w workload) batches(seed uint64) [][]data.Batch {
	ring := make([][]data.Batch, batchRing)
	for i := range ring {
		ring[i] = data.Microbatches(seed*1000003+uint64(i), w.N, mbSize, vocab, w.S)
	}
	return ring
}
