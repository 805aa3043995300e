package pipeline

import (
	"fmt"
	"sync"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/trace"
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

// ClusterResult is the outcome of RunCluster.
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
	// or the loss scaler. The skip decision is global, so the count is the
	// same on every rank.
	SkippedSteps int
	// SpikeSteps counts steps the grad-norm spike detector flagged
	// (Options.SpikeWindow); like the skip count, it is global.
	SpikeSteps int
	// Repairs lists the elastic repairs RunResilient performed (empty for
	// plain runs and for checkpoint-only recovery).
	Repairs []RepairEvent
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

// RunCluster trains `iters` iterations of strategy s on p in-process ranks,
// feeding iteration i the microbatch list batchesFn(i) (every rank receives
// the same list). It returns the per-iteration losses and the assembled
// final weights. It is the harness used by tests and examples.
func RunCluster(s Strategy, p int, cfg model.Config, opts Options, iters int,
	batchesFn func(iter int) []data.Batch) (*ClusterResult, error) {

	var codec comm.CodecFunc
	if opts.BF16Wire {
		codec = comm.BeltBF16
	}
	cluster := comm.NewClusterCodec(p, codec)
	defer cluster.Close()
	cluster.AttachTrace(opts.Trace)

	trainers := make([]Trainer, p)
	losses := make([][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := New(s, cluster.Transport(r), cfg, opts)
			if err != nil {
				errs[r] = err
				return
			}
			trainers[r] = tr
			rt := opts.Trace.Rank(r)
			for i := 0; i < iters; i++ {
				span := rt.Begin()
				loss, err := tr.TrainIteration(batchesFn(i))
				rt.End(span, trace.CodeStep, int64(i), 0)
				if err != nil {
					errs[r] = fmt.Errorf("iteration %d: %w", i, err)
					return
				}
				losses[r] = append(losses[r], loss)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}

	res := &ClusterResult{
		Losses:       losses[0],
		Weights:      AssembleWeights(trainers),
		SkippedSteps: maxSkipped(trainers),
		SpikeSteps:   maxSpikes(trainers),
	}
	for r := 0; r < p; r++ {
		res.Comm = append(res.Comm, cluster.Stats(r))
	}
	return res, nil
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
