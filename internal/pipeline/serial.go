package pipeline

import (
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// Serial is the single-process reference trainer every distributed strategy
// is validated against: it processes the microbatches one by one, sums
// their gradients, divides by the microbatch count and takes one AdamW
// step over the full flat parameter vector.
type Serial struct {
	mdl  *model.Model
	opt  *optim.AdamW
	opts Options
	// arena supplies every per-microbatch intermediate; with one microbatch
	// in flight at a time it is reset as soon as the W pass has run.
	arena *tensor.Arena
	// grads accumulates an iteration's gradients; kept and re-zeroed across
	// iterations (see zeroedGrads).
	grads   []*nn.ParamSet
	skipped int
	tr      *trace.Tracer
}

// NewSerial builds the reference trainer.
func NewSerial(cfg model.Config, opts Options) *Serial {
	mdl := model.Build(cfg)
	return &Serial{
		mdl:   mdl,
		opt:   optim.NewAdamW(mdl.NumParams(), opts.Adam),
		opts:  opts,
		arena: tensor.NewArena(),
		tr:    opts.Trace.Rank(0),
	}
}

// Model implements Trainer.
func (s *Serial) Model() *model.Model { return s.mdl }

// TrainIteration implements Trainer.
func (s *Serial) TrainIteration(batches []data.Batch) (float64, error) {
	n := len(s.mdl.Modules)
	s.grads = zeroedGrads(s.mdl, s.grads)
	grads := s.grads
	var lossSum float64
	for mi, b := range batches {
		mb := int64(mi)
		caches := newCaches(0, n, b.G(), b.S(), s.arena)
		span := s.tr.Begin()
		_, loss := forwardRange(s.mdl, 0, n, nil, b, caches, s.opts.Recompute)
		s.tr.End(span, trace.CodeF, mb, 0)
		lossSum += loss
		var dy *tensor.Tensor
		span = s.tr.Begin()
		backwardRangeB(s.mdl, 0, n, dy, caches, s.opts.Recompute)
		s.tr.End(span, trace.CodeB, mb, 0)
		span = s.tr.Begin()
		backwardRangeW(s.mdl, 0, n, caches, grads)
		s.tr.End(span, trace.CodeW, mb, 0)
		s.arena.Reset() // grads live on the heap; all scratch is now dead
	}
	span := s.tr.Begin()
	s.step(grads, len(batches))
	s.tr.End(span, trace.CodeOpt, 0, 0)
	return lossSum / float64(len(batches)), nil
}

// step averages the accumulated gradients over n microbatches and applies
// one optimizer update across the whole model (or, under the non-finite
// guard, skips it).
func (s *Serial) step(grads []*nn.ParamSet, n int) {
	total := s.mdl.NumParams()
	flatW := make([]float32, total)
	flatG := make([]float32, total)
	s.mdl.FlattenChunk(0, len(s.mdl.Modules), flatW)
	flattenGrads(grads, flatG)
	inv := gradFactor(n)
	for i := range flatG {
		flatG[i] *= inv
	}
	var sumSq float64
	if needGlobalSumSq(s.opts) {
		sumSq = sumSquares(flatG)
	}
	if s.opts.GuardNonFinite && !finiteSum(sumSq) {
		s.skipped++
		return
	}
	if c := clipScale(s.opts, sumSq); c != 1 {
		for i := range flatG {
			flatG[i] *= c
		}
	}
	s.opt.Step(flatW, flatG)
	s.mdl.SetChunk(0, len(s.mdl.Modules), flatW)
}

// Loss runs a forward-only pass over the batches (no update) and returns
// the mean loss; used by examples to report evaluation loss.
func (s *Serial) Loss(batches []data.Batch) float64 {
	n := len(s.mdl.Modules)
	var sum float64
	for _, b := range batches {
		caches := newCaches(0, n, b.G(), b.S(), s.arena)
		_, loss := forwardRange(s.mdl, 0, n, nil, b, caches, false)
		sum += loss
		s.arena.Reset()
	}
	return sum / float64(len(batches))
}

var _ Trainer = (*Serial)(nil)
