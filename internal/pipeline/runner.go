package pipeline

import (
	"cmp"
	"fmt"
	"slices"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
)

// ClusterResult is the outcome of RunCluster and RunResilient.
type ClusterResult struct {
	// Losses holds the per-iteration mean loss (identical across ranks).
	Losses []float64
	// Weights is the full post-training flat parameter vector, assembled
	// from each rank's owned module range.
	Weights []float32
	// Comm holds each rank's communication meter — the functional TBW
	// measurement (bytes by message kind) the paper's analysis reasons
	// about.
	Comm []*comm.Stats
	// SkippedSteps counts optimizer steps the guard (Options.Guard)
	// dropped. The skip decision is global, so the count is the same on
	// every rank.
	SkippedSteps int
	// SpikeSteps counts the skipped steps whose Σg² spiked; like the skip
	// count, it is global.
	SpikeSteps int
	// Repairs lists the elastic repairs RunResilient performed (empty for
	// plain runs and for checkpoint-only recovery).
	Repairs []RepairEvent
	// Checkpoint is the run's last restart point: the coordinated
	// checkpoint the loop took last — with CheckpointEvery > 0 always the
	// final iteration's — else the snapshot it was seeded or repaired from
	// (nil when there is none). It is a segment's end state for the replay
	// oracle.
	Checkpoint *checkpoint.Snapshot
	// ArenaHighWater is the most scratch buffers any rank's arena store
	// made, and ArenaBytes the most heap any held (ArenaMeter; 0 when no
	// trainer recycles arenas).
	ArenaHighWater, ArenaBytes int
}

// TotalComm aggregates the per-rank meters.
func (r *ClusterResult) TotalComm() *comm.Stats {
	total := comm.NewStats()
	for _, s := range r.Comm {
		total.Add(s)
	}
	return total
}

// RunCluster trains `iters` iterations of strategy s on p in-process ranks,
// feeding iteration i the microbatch list batchesFn(i) (every rank receives
// the same list). It returns the per-iteration losses and the assembled
// final weights. It is RunResilient with no recovery over an f32
// in-process fabric carrying Options.Trace; a bf16 wire is a fabric
// choice, made by giving RunResilient a comm.NewClusterCodec factory.
func RunCluster(s Strategy, p int, cfg model.Config, opts Options, iters int,
	batchesFn func(iter int) []data.Batch) (*ClusterResult, error) {

	return RunResilient(RunSpec{Strategy: s, Model: cfg, Options: opts, World: p, Iters: iters},
		RunHooks{Batches: batchesFn})
}

// AssembleWeights builds the full flat parameter vector from the weights
// each trainer holds (Trainer.ExportWeights). Every element must be held by at
// least one trainer.
func AssembleWeights(trainers []Trainer) []float32 {
	full := make([]float32, trainers[0].Model().NumParams())
	var held [][2]int
	for _, tr := range trainers {
		held = append(held, tr.ExportWeights(full)...)
	}
	if next := firstUnheld(held, len(full)); next < len(full) {
		panic(fmt.Sprintf("pipeline: weight %d held by no rank", next))
	}
	return full
}

// firstUnheld returns the first index of [0, n) no range in held covers (n
// when they cover it all), sorting held in place.
func firstUnheld(held [][2]int, n int) int {
	slices.SortFunc(held, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	next := 0 // every element below next is held
	for _, r := range held {
		if r[0] > next {
			break
		}
		next = max(next, r[1])
	}
	return min(next, n)
}
