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

// Owner is implemented by every trainer. It moves the weights the rank holds
// — the authoritative, post-step copy — between the trainer and the model's
// flat parameter vector (wire order, Model().NumParams() long). Which
// elements those are is the strategy's: the whole model (serial, DP), the
// rank's stage (PP), its owned chunk (WeiPipe) or its shard of every module
// (FSDP). Weights leave a trainer through ExportWeights (AssembleWeights)
// and enter it through LoadWeights (RestoreSnapshot), never through Model().
type Owner interface {
	// ExportWeights copies the rank's weights into their places in full and
	// returns the ranges [lo, hi) of full it wrote.
	ExportWeights(full []float32) [][2]int
	// LoadWeights replaces the rank's weights with their elements of full.
	LoadWeights(full []float32)
}

// exportFlat copies w, weights a rank holds as one flat range, into full at
// offset off and returns the range it wrote.
func exportFlat(full []float32, off int, w []float32) [2]int {
	copy(full[off:off+len(w)], w)
	return [2]int{off, off + len(w)}
}

// ExportWeights implements Owner for the serial reference (whole model).
func (s *Serial) ExportWeights(full []float32) [][2]int {
	s.mdl.FlattenChunk(0, len(s.mdl.Modules), full)
	return [][2]int{{0, len(full)}}
}

// LoadWeights implements Owner for the serial reference.
func (s *Serial) LoadWeights(full []float32) { s.mdl.SetChunk(0, len(s.mdl.Modules), full) }

// ExportWeights implements Owner for DP (whole model on every rank).
func (d *DP) ExportWeights(full []float32) [][2]int {
	d.mdl.FlattenChunk(0, len(d.mdl.Modules), full)
	return [][2]int{{0, len(full)}}
}

// LoadWeights implements Owner for DP.
func (d *DP) LoadWeights(full []float32) { d.mdl.SetChunk(0, len(d.mdl.Modules), full) }

// ExportWeights implements Owner for FSDP: this rank's shard of every module.
func (f *FSDP) ExportWeights(full []float32) [][2]int {
	held := make([][2]int, len(f.shards))
	for i, shard := range f.shards {
		held[i] = exportFlat(full, f.shardAt[i], shard)
	}
	return held
}

// LoadWeights implements Owner for FSDP.
func (f *FSDP) LoadWeights(full []float32) {
	for i, shard := range f.shards {
		copy(shard, full[f.shardAt[i]:])
	}
}

// ExportWeights implements Owner for the activation-passing stages.
func (p *PP) ExportWeights(full []float32) [][2]int {
	return [][2]int{exportFlat(full, p.off, p.flatW)}
}

// LoadWeights implements Owner for the activation-passing stages.
func (p *PP) LoadWeights(full []float32) { copy(p.flatW, full[p.off:]) }

// ExportWeights implements Owner for WeiPipe (the owned chunk).
func (w *WeiPipe) ExportWeights(full []float32) [][2]int {
	return [][2]int{exportFlat(full, w.chunkOffset(w.ownChunk), w.masterW)}
}

// LoadWeights implements Owner for WeiPipe: the owned chunk and, under buddy
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

// OwnedModules implements Recoverable for the serial reference (whole model).
func (s *Serial) OwnedModules() (int, int) { return 0, len(s.mdl.Modules) }

// OwnedModules implements Recoverable for WeiPipe (the owned chunk).
func (w *WeiPipe) OwnedModules() (int, int) { return w.chunkRange(w.ownChunk) }

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
	// SkippedSteps counts optimizer steps dropped by the non-finite guard
	// or the spike detector. The skip decision is global, so the count is
	// the same on every rank.
	SkippedSteps int
	// SpikeSteps counts steps the grad-norm spike detector flagged
	// (Options.SpikeWindow); like the skip count, it is global.
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

// SkipCounter is implemented by trainers that count guard-skipped steps.
type SkipCounter interface {
	SkippedSteps() int
}

// SkippedSteps implements SkipCounter for the serial reference.
func (s *Serial) SkippedSteps() int { return s.skipped }

// SkippedSteps implements SkipCounter for DP.
func (d *DP) SkippedSteps() int { return d.skipped }

// SkippedSteps implements SkipCounter for FSDP.
func (f *FSDP) SkippedSteps() int { return f.skipped }

// SkippedSteps implements SkipCounter for the activation-passing stages.
func (p *PP) SkippedSteps() int { return p.skipped }

// SkippedSteps implements SkipCounter for WeiPipe.
func (w *WeiPipe) SkippedSteps() int { return w.skipped }

// SkippedSteps implements SkipCounter for the hybrid trainer.
func (h *WeiPipeDP) SkippedSteps() int { return h.inner.skipped }

// maxSkipped returns the largest per-trainer skip count (they agree on
// every rank that implements SkipCounter; max is robust to mixtures).
func maxSkipped(trainers []Trainer) int {
	out := 0
	for _, tr := range trainers {
		if sc, ok := tr.(SkipCounter); ok && sc.SkippedSteps() > out {
			out = sc.SkippedSteps()
		}
	}
	return out
}

// TotalComm aggregates the per-rank meters.
func (r *ClusterResult) TotalComm() *comm.Stats {
	total := comm.NewStats()
	for _, s := range r.Comm {
		total.Add(s)
	}
	return total
}

// maxArenaHighWater returns the largest ArenaMeter reading among trainers.
func maxArenaHighWater(trainers []Trainer) int {
	out := 0
	for _, tr := range trainers {
		if am, ok := tr.(ArenaMeter); ok && am.ArenaHighWater() > out {
			out = am.ArenaHighWater()
		}
	}
	return out
}

// RunCluster trains `iters` iterations of strategy s on p in-process ranks,
// feeding iteration i the microbatch list batchesFn(i) (every rank receives
// the same list). It returns the per-iteration losses and the assembled
// final weights. It is RunResilient's loop with no recovery options over an
// f32 in-process fabric carrying Options.Trace; a bf16 wire is a fabric
// choice, made by calling RunResilient over comm.NewClusterCodec.
func RunCluster(s Strategy, p int, cfg model.Config, opts Options, iters int,
	batchesFn func(iter int) []data.Batch) (*ClusterResult, error) {

	return RunResilient(s, p, cfg, opts, iters, batchesFn,
		func(_, size int) ([]comm.Transport, error) {
			cluster := comm.NewCluster(size)
			cluster.AttachTrace(opts.Trace)
			return cluster.Transports(), nil
		}, ResilientOptions{})
}

// AssembleWeights builds the full flat parameter vector from the weights
// each trainer holds (Owner.ExportWeights). Every element must be held by at
// least one trainer.
func AssembleWeights(trainers []Trainer) []float32 {
	full := make([]float32, trainers[0].Model().NumParams())
	var held [][2]int
	for _, tr := range trainers {
		held = append(held, tr.(Owner).ExportWeights(full)...)
	}
	slices.SortFunc(held, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
	next := 0 // every element below next is held
	for _, r := range held {
		if r[0] > next {
			break
		}
		next = max(next, r[1])
	}
	if next < len(full) {
		panic(fmt.Sprintf("pipeline: weight %d held by no rank", next))
	}
	return full
}

// LRSetter is implemented by trainers whose optimizer learning rate can be
// changed between iterations (for warm-up/decay schedules).
type LRSetter interface {
	SetLR(lr float64)
}

// SetLR implements LRSetter for the serial reference.
func (s *Serial) SetLR(lr float64) { s.opt.SetLR(lr) }

// SetLR implements LRSetter for DP.
func (d *DP) SetLR(lr float64) { d.opt.SetLR(lr) }

// SetLR implements LRSetter for FSDP (every module shard's optimizer).
func (f *FSDP) SetLR(lr float64) {
	for _, o := range f.opts {
		o.SetLR(lr)
	}
}

// SetLR implements LRSetter for the activation-passing stages.
func (p *PP) SetLR(lr float64) { p.opt.SetLR(lr) }

// SetLR implements LRSetter for WeiPipe.
func (w *WeiPipe) SetLR(lr float64) { w.opt.SetLR(lr) }

// SetLR implements LRSetter for the hybrid trainer.
func (h *WeiPipeDP) SetLR(lr float64) { h.inner.SetLR(lr) }
