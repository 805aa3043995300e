package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// DP is plain data parallelism: every rank holds a full model replica and a
// full optimizer replica, processes its round-robin share of the
// microbatches, and ring-all-reduces the flat gradient before every rank
// takes the identical optimizer step.
type DP struct {
	t     Transport
	mdl   *model.Model
	opt   *optim.AdamW
	opts  Options
	seq   int // collective sequence counter (identical across ranks)
	arena *tensor.Arena
	// grads accumulates an iteration's gradients; kept and re-zeroed across
	// iterations (see zeroedGrads).
	grads []*nn.ParamSet
	// flatW and flatG are the replica's weights and gradients in wire order,
	// overwritten whole by every step and kept for the same reason as PP's.
	flatW, flatG []float32
	skipped      int
	tr           *trace.Tracer
}

// NewDP builds a DP trainer for this rank.
func NewDP(t Transport, cfg model.Config, opts Options) (*DP, error) {
	mdl := model.Build(cfg)
	total := mdl.NumParams()
	return &DP{
		t:     t,
		mdl:   mdl,
		opt:   optim.NewAdamW(total, opts.Adam),
		flatW: make([]float32, total),
		flatG: make([]float32, total),
		opts:  opts,
		arena: tensor.NewArena(),
		tr:    opts.Trace.Rank(t.Rank()),
	}, nil
}

// Model implements Trainer.
func (d *DP) Model() *model.Model { return d.mdl }

// TrainIteration implements Trainer.
func (d *DP) TrainIteration(batches []data.Batch) (float64, error) {
	p := d.t.Size()
	if len(batches)%p != 0 {
		return 0, fmt.Errorf("pipeline: DP needs microbatch count divisible by %d ranks", p)
	}
	mine := data.Split(batches, p)[d.t.Rank()]
	nMods := len(d.mdl.Modules)
	d.grads = zeroedGrads(d.mdl, d.grads)
	grads := d.grads
	var lossSum float64
	for mi, b := range mine {
		mb := int64(mi)
		caches := newCaches(0, nMods, b.G(), b.S(), d.arena)
		span := d.tr.Begin()
		_, loss := forwardRange(d.mdl, 0, nMods, nil, b, caches, d.opts.Recompute)
		d.tr.End(span, trace.CodeF, mb, 0)
		lossSum += loss
		var dy *tensor.Tensor
		span = d.tr.Begin()
		backwardRangeB(d.mdl, 0, nMods, dy, caches, d.opts.Recompute)
		d.tr.End(span, trace.CodeB, mb, 0)
		span = d.tr.Begin()
		backwardRangeW(d.mdl, 0, nMods, caches, grads)
		d.tr.End(span, trace.CodeW, mb, 0)
		d.arena.Reset()
	}

	optSpan := d.tr.Begin()
	flatW, flatG := d.flatW, d.flatG
	flattenGrads(grads, flatG)
	d.seq++
	if err := comm.RingAllReduceSum(d.t, flatG, d.seq); err != nil {
		return 0, err
	}
	inv := gradFactor(len(batches))
	for i := range flatG {
		flatG[i] *= inv
	}
	// The all-reduced gradient is replicated, so Σg² is already a global
	// quantity — every rank computes the same value and makes the same
	// clip/skip decision with no extra collective.
	var sumSq float64
	if needGlobalSumSq(d.opts) {
		sumSq = sumSquares(flatG)
	}
	if d.opts.GuardNonFinite && !finiteSum(sumSq) {
		d.skipped++
	} else {
		if c := clipScale(d.opts, sumSq); c != 1 {
			for i := range flatG {
				flatG[i] *= c
			}
		}
		d.mdl.FlattenChunk(0, nMods, flatW)
		d.opt.Step(flatW, flatG)
		d.mdl.SetChunk(0, nMods, flatW)
	}

	d.tr.End(optSpan, trace.CodeOpt, int64(d.seq), 0)

	d.seq++
	sum, err := comm.AllReduceScalarSum(d.t, lossSum, d.seq)
	if err != nil {
		return 0, err
	}
	return sum / float64(len(batches)), nil
}

var _ Trainer = (*DP)(nil)
