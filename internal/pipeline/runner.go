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

// exportFlat copies w, weights a rank holds as one flat range, into full at
// offset off and returns the range it wrote.
func exportFlat(full []float32, off int, w []float32) [2]int {
	copy(full[off:off+len(w)], w)
	return [2]int{off, off + len(w)}
}

// ExportWeights implements Trainer for the serial reference (whole model).
func (s *Serial) ExportWeights(full []float32) [][2]int {
	s.mdl.FlattenChunk(0, len(s.mdl.Modules), full)
	return [][2]int{{0, len(full)}}
}

// LoadWeights implements Trainer for the serial reference.
func (s *Serial) LoadWeights(full []float32) { s.mdl.SetChunk(0, len(s.mdl.Modules), full) }

// ExportWeights implements Trainer for DP (whole model on every rank).
func (d *DP) ExportWeights(full []float32) [][2]int {
	d.mdl.FlattenChunk(0, len(d.mdl.Modules), full)
	return [][2]int{{0, len(full)}}
}

// LoadWeights implements Trainer for DP.
func (d *DP) LoadWeights(full []float32) { d.mdl.SetChunk(0, len(d.mdl.Modules), full) }

// ExportWeights implements Trainer for FSDP: this rank's shard of every module.
func (f *FSDP) ExportWeights(full []float32) [][2]int {
	held := make([][2]int, len(f.shards))
	for i, shard := range f.shards {
		held[i] = exportFlat(full, f.shardAt[i], shard)
	}
	return held
}

// LoadWeights implements Trainer for FSDP.
func (f *FSDP) LoadWeights(full []float32) {
	for i, shard := range f.shards {
		copy(shard, full[f.shardAt[i]:])
	}
}

// ExportWeights implements Trainer for the activation-passing stages.
func (p *PP) ExportWeights(full []float32) [][2]int {
	return [][2]int{exportFlat(full, p.off, p.flatW)}
}

// LoadWeights implements Trainer for the activation-passing stages.
func (p *PP) LoadWeights(full []float32) { copy(p.flatW, full[p.off:]) }

// ExportWeights implements Trainer for WeiPipe (the owned chunk).
func (w *WeiPipe) ExportWeights(full []float32) [][2]int {
	return [][2]int{exportFlat(full, w.chunkOffset(w.ownChunk), w.masterW)}
}

// LoadWeights implements Trainer for WeiPipe: the owned chunk and, under buddy
// replication, the shadowed successor chunk. A load is a legitimate mutation
// of guarded resident state, so the integrity guards are re-armed over the
// fresh values.
func (w *WeiPipe) LoadWeights(full []float32) {
	copy(w.masterW, full[w.chunkOffset(w.ownChunk):])
	if w.buddy != nil {
		copy(w.buddy.w, full[w.chunkOffset(w.buddy.chunk):])
	}
	w.refreshResidentGuards()
}

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
	// made (ArenaMeter; 0 when no trainer recycles arenas).
	ArenaHighWater int
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

// SetLR implements Trainer for the serial reference.
func (s *Serial) SetLR(lr float64) { s.opt.SetLR(lr) }

// SetLR implements Trainer for DP.
func (d *DP) SetLR(lr float64) { d.opt.SetLR(lr) }

// SetLR implements Trainer for FSDP (every module shard's optimizer).
func (f *FSDP) SetLR(lr float64) {
	for _, o := range f.opts {
		o.SetLR(lr)
	}
}

// SetLR implements Trainer for the activation-passing stages.
func (p *PP) SetLR(lr float64) { p.opt.SetLR(lr) }

// SetLR implements Trainer for WeiPipe.
func (w *WeiPipe) SetLR(lr float64) { w.opt.SetLR(lr) }

// SetLR implements Trainer for the hybrid trainer.
func (h *WeiPipeDP) SetLR(lr float64) { h.inner.SetLR(lr) }
