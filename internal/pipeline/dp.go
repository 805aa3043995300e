package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/trace"
)

// DP is plain data parallelism: every rank is a Serial trainer, holding a
// full model replica and a full optimizer replica, over its round-robin
// share of the microbatches, and ring-all-reduces the flat gradient before
// every rank takes the identical optimizer step.
type DP struct {
	*Serial
	t   Transport
	seq int // collective sequence counter (identical across ranks)
}

// NewDP builds a DP trainer for this rank.
func NewDP(t Transport, cfg model.Config, opts Options) (*DP, error) {
	return &DP{Serial: newSerial(cfg, opts, t.Rank()), t: t}, nil
}

// TrainIteration implements Trainer.
func (d *DP) TrainIteration(batches []data.Batch) (float64, error) {
	p := d.t.Size()
	if len(batches)%p != 0 {
		return 0, fmt.Errorf("pipeline: DP needs microbatch count divisible by %d ranks", p)
	}
	lossSum := d.passes(data.Split(batches, p)[d.t.Rank()])

	optSpan := d.tr.Begin()
	d.seq++
	if err := comm.RingAllReduceSum(d.t, d.flatG, d.seq); err != nil {
		return 0, err
	}
	// The all-reduced gradient is replicated, so Σg² is already a global
	// quantity — every rank computes the same value and makes the same
	// step decision with no extra collective.
	if err := d.step(len(batches), nil, d.flatG); err != nil {
		return 0, err
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
