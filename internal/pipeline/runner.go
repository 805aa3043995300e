package pipeline

import (
	"fmt"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
)

// Owner is implemented by every trainer; it reports which contiguous module
// range of the local Model() holds authoritative (post-step) weights. Data-
// parallel strategies own the whole model on every rank; pipeline
// strategies own their stage; WeiPipe workers own their chunk.
type Owner interface {
	OwnedModules() (lo, hi int)
}

// OwnedModules implements Owner for the serial reference (whole model).
func (s *Serial) OwnedModules() (int, int) { return 0, len(s.mdl.Modules) }

// OwnedModules implements Owner for DP (whole model on every rank).
func (d *DP) OwnedModules() (int, int) { return 0, len(d.mdl.Modules) }

// OwnedModules implements Owner for FSDP (buffer refreshed post-step).
func (f *FSDP) OwnedModules() (int, int) { return 0, len(f.mdl.Modules) }

// OwnedModules implements Owner for the activation-passing stages.
func (p *PP) OwnedModules() (int, int) { return p.lo, p.hi }

// OwnedModules implements Owner for WeiPipe (the owned chunk).
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

// AssembleWeights builds the full flat parameter vector from each trainer's
// owned module range. Every module must be owned by at least one trainer.
func AssembleWeights(trainers []Trainer) []float32 {
	mdl := trainers[0].Model()
	nMods := len(mdl.Modules)
	full := make([]float32, mdl.NumParams())
	covered := make([]bool, nMods)

	// module offsets in the flat layout
	offsets := make([]int, nMods+1)
	for i := 0; i < nMods; i++ {
		offsets[i+1] = offsets[i] + mdl.ModuleParamSize(i)
	}
	for _, tr := range trainers {
		lo, hi := tr.(Owner).OwnedModules()
		buf := make([]float32, offsets[hi]-offsets[lo])
		tr.Model().FlattenChunk(lo, hi, buf)
		copy(full[offsets[lo]:offsets[hi]], buf)
		for i := lo; i < hi; i++ {
			covered[i] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			panic(fmt.Sprintf("pipeline: module %d owned by no rank", i))
		}
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

// ReloadMasterFromModel is called after loading checkpoint weights into
// Model(). The owned chunk's modules are views of the master vector, so the
// load already wrote it; what is left is that the load was a legitimate
// mutation of guarded resident state, so the integrity guards are re-armed
// over the fresh values.
func (w *WeiPipe) ReloadMasterFromModel() { w.refreshResidentGuards() }
