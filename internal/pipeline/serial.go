package pipeline

import (
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// Serial is the single-process reference trainer every distributed strategy
// is validated against: it processes the microbatches one by one, sums
// their gradients, divides by the microbatch count and takes one AdamW
// step over the full flat parameter vector. It owns the whole model as one
// piece, as a PP stage owns its range: the modules are views of the flat
// weights and the gradient sets of the flat gradient, so the step runs in
// place.
type Serial struct {
	owned
	opts Options
	// arena supplies every per-microbatch intermediate; with one microbatch
	// in flight at a time it is reset as soon as the W pass has run.
	arena *tensor.Arena
	// flatG is the model's gradient in wire order, which grads, indexed by
	// module, are views of; zeroed at every iteration's start.
	flatG []float32
	grads []*nn.ParamSet
	tr    *trace.Tracer
}

// NewSerial builds the reference trainer.
func NewSerial(cfg model.Config, opts Options) *Serial { return newSerial(cfg, opts, 0) }

// newSerial builds the whole-model trainer of rank: the reference, or a DP
// replica.
func newSerial(cfg model.Config, opts Options, rank int) *Serial {
	s := &Serial{
		owned: owned{mdl: model.BuildShells(cfg), stepRule: newStepRule(opts, rank)},
		opts:  opts,
		arena: tensor.NewArena(),
		tr:    opts.Trace.Rank(rank),
	}
	n := len(s.mdl.Modules)
	s.ownRange(0, n, opts.Adam)
	s.flatG, s.grads = bindGrads(s.mdl, 0, n)
	return s
}

// TrainIteration implements Trainer.
func (s *Serial) TrainIteration(batches []data.Batch) (float64, error) {
	lossSum := s.passes(batches)
	span := s.tr.Begin()
	err := s.step(len(batches), nil, s.flatG)
	s.tr.End(span, trace.CodeOpt, 0, 0)
	return lossSum / float64(len(batches)), err
}

// passes zeroes the gradient and runs every batch's F, B and W passes over
// the whole model, one microbatch at a time, summing the gradients into
// flatG. It returns the batches' summed loss.
func (s *Serial) passes(batches []data.Batch) float64 {
	n := len(s.mdl.Modules)
	clear(s.flatG)
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
		backwardRangeW(s.mdl, 0, n, caches, s.grads)
		s.tr.End(span, trace.CodeW, mb, 0)
		s.arena.Reset() // grads live in flatG; all scratch is now dead
	}
	return lossSum
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
