package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// PP is the trainer of the activation-passing pipeline strategies (GPipe,
// 1F1B, ZB1, ZB2): rank r permanently owns the contiguous module range
// bounds[r] (its stage), activations flow r → r+1 during forward and
// activation gradients flow r+1 → r during backward, and every stage steps
// its own parameters locally — no weight communication at all. The four
// strategies differ only in the order a stage runs its F, B and W passes,
// which is the stage's program (internal/order).
//
// The zero-bubble orders split the backward into a B pass (activation
// gradients — on the critical path, sent upstream immediately) and a W pass
// (weight gradients — filler work). Per the paper, recomputation is never
// combined with them (it would save nothing: the B pass needs the activations
// checkpointing would have dropped), so they ignore Options.Recompute.
type PP struct {
	owned
	t        Transport
	lo, hi   int
	opts     Options
	strategy Strategy

	// recompute is Options.Recompute, forced off under ZB1 and ZB2.
	recompute bool

	// prog is the stage's program order (order.Program of the strategy).
	prog program

	// per-microbatch state for the current iteration
	caches map[int][]*nn.Cache
	lossMB map[int]float64
	seq    int

	// flatG is the stage's gradient in wire order, the step's operand and
	// its only copy: grads, indexed by global module index, are views of it
	// for good, as the stage's modules are of its owned weights.
	flatG []float32
	grads []*nn.ParamSet

	// arenas holds each in-flight microbatch's scratch arena, acquired at
	// forward time and released (reset + pooled) after the W pass. The pool
	// therefore holds as many arenas as the schedule's peak in-flight
	// microbatch count (N for GPipe, warm-up depth for 1F1B/ZB).
	arenas map[int]*tensor.Arena
	apool  arenaPool
	// inbox holds each in-flight microbatch's received boundary payloads —
	// the activation from the previous stage, the activation gradient from
	// the next — which the caches and the W-pass stashes alias until the W
	// pass; releaseMB hands them back to the transport pool with the arena.
	inbox map[int][2][]float32

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer
}

// ArenaHighWater implements ArenaMeter.
func (p *PP) ArenaHighWater() int { return p.apool.highWater() }

// NewPP builds this rank's stage for strategy s: StrategyGPipe, Strategy1F1B,
// StrategyZB1 or StrategyZB2.
func NewPP(t Transport, cfg model.Config, opts Options, s Strategy) (*PP, error) {
	switch s {
	case StrategyGPipe, Strategy1F1B, StrategyZB1, StrategyZB2:
	default:
		return nil, fmt.Errorf("pipeline: %q is not an activation-passing pipeline strategy", s)
	}
	mdl := model.BuildShells(cfg)
	p := t.Size()
	if p > len(mdl.Modules) {
		return nil, fmt.Errorf("pipeline: %d ranks exceed %d modules", p, len(mdl.Modules))
	}
	bounds := mdl.Partition(p)
	lo, hi := bounds[t.Rank()][0], bounds[t.Rank()][1]
	pp := &PP{
		owned:     owned{mdl: mdl, stepRule: newStepRule(opts, t.Rank())},
		t:         t,
		lo:        lo,
		hi:        hi,
		opts:      opts,
		strategy:  s,
		recompute: opts.Recompute && s != StrategyZB1 && s != StrategyZB2,
		tr:        opts.Trace.Rank(t.Rank()),
	}
	pp.ownRange(lo, hi, opts.Adam, make([]float32, pp.mdl.ChunkSize(lo, hi)))
	pp.flatG, pp.grads = bindGrads(mdl, lo, hi)
	return pp, nil
}

func (p *PP) isFirst() bool { return p.t.Rank() == 0 }
func (p *PP) isLast() bool  { return p.t.Rank() == p.t.Size()-1 }

// beginIteration resets per-iteration state.
func (p *PP) beginIteration() {
	p.caches = make(map[int][]*nn.Cache)
	bindSets(p.flatG, p.grads[p.lo:p.hi], true)
	p.lossMB = make(map[int]float64)
	p.arenas = make(map[int]*tensor.Arena)
	p.inbox = make(map[int][2][]float32)
}

// hidden returns the boundary activation width (the hidden size).
func (p *PP) hidden() int { return p.mdl.Cfg.Hidden }

// forwardMB runs this stage's forward for microbatch m, receiving boundary
// activations from the previous stage and sending them to the next.
func (p *PP) forwardMB(m int, b data.Batch) error {
	var x *tensor.Tensor
	if !p.isFirst() {
		span := p.tr.Begin()
		payload, err := p.t.Recv(p.t.Rank()-1, Tag{Kind: comm.KindAct, A: m})
		p.tr.End(span, trace.CodeStall, int64(comm.KindAct), int64(p.t.Rank()-1))
		if err != nil {
			return err
		}
		p.inbox[m] = [2][]float32{payload}
		x = tensor.FromSlice(payload, b.G()*b.S(), p.hidden())
	}
	arena := p.apool.acquire()
	p.arenas[m] = arena
	caches := newCaches(p.lo, p.hi, b.G(), b.S(), arena)
	p.caches[m] = caches
	span := p.tr.Begin()
	out, loss := forwardRange(p.mdl, p.lo, p.hi, x, b, caches, p.recompute)
	p.tr.End(span, trace.CodeF, int64(m), int64(p.t.Rank()))
	if p.isLast() {
		p.lossMB[m] = loss
		return nil
	}
	// Send copies: nothing on this stage stashes the boundary output.
	err := p.t.Send(p.t.Rank()+1, Tag{Kind: comm.KindAct, A: m}, out.Data)
	arena.Free(out)
	return err
}

// backwardMBInput runs this stage's B pass for microbatch m, receiving the
// boundary gradient from the next stage and sending the propagated gradient
// to the previous stage. The caches stay alive for the W pass.
func (p *PP) backwardMBInput(m int, b data.Batch) error {
	var dy *tensor.Tensor
	if !p.isLast() {
		span := p.tr.Begin()
		payload, err := p.t.Recv(p.t.Rank()+1, Tag{Kind: comm.KindActGrad, A: m})
		p.tr.End(span, trace.CodeStall, int64(comm.KindActGrad), int64(p.t.Rank()+1))
		if err != nil {
			return err
		}
		p.inbox[m] = [2][]float32{p.inbox[m][0], payload}
		dy = tensor.FromSlice(payload, b.G()*b.S(), p.hidden())
	}
	span := p.tr.Begin()
	dx := backwardRangeB(p.mdl, p.lo, p.hi, dy, p.caches[m], p.recompute)
	p.tr.End(span, trace.CodeB, int64(m), int64(p.t.Rank()))
	if p.isFirst() {
		return nil
	}
	err := p.t.Send(p.t.Rank()-1, Tag{Kind: comm.KindActGrad, A: m}, dx.Data)
	p.arenas[m].Free(dx)
	return err
}

// backwardMBParams runs this stage's W pass for microbatch m and releases
// the microbatch's activation caches.
func (p *PP) backwardMBParams(m int) {
	span := p.tr.Begin()
	backwardRangeW(p.mdl, p.lo, p.hi, p.caches[m], p.grads)
	p.tr.End(span, trace.CodeW, int64(m), int64(p.t.Rank()))
	p.releaseMB(m)
}

// releaseMB drops microbatch m's caches and gives its arena and its received
// boundary payloads back to their pools: nothing of the microbatch may be
// read afterwards.
func (p *PP) releaseMB(m int) {
	delete(p.caches, m)
	p.apool.release(p.arenas[m])
	delete(p.arenas, m)
	for _, payload := range p.inbox[m] {
		comm.Release(payload)
	}
	delete(p.inbox, m)
}

// abortIteration releases every microbatch a failed iteration left in
// flight — each holds an arena from its forward on — so an aborting stage
// leaks neither arenas nor transport buffers.
func (p *PP) abortIteration() {
	for m := range p.arenas {
		p.releaseMB(m)
	}
}

// finishLoss broadcasts the last stage's mean loss to every rank.
func (p *PP) finishLoss(n int) (float64, error) {
	var sum float64
	for _, l := range p.lossMB {
		sum += l
	}
	p.seq++
	var payload []float32
	if p.isLast() {
		payload = []float32{float32(sum / float64(n))}
	}
	out, err := comm.Broadcast(p.t, p.t.Size()-1, payload, p.seq)
	if err != nil {
		return 0, err
	}
	return float64(out[0]), nil
}

// TrainIteration implements Trainer: it interprets the stage's program
// (order.Program of the strategy), one pass per op, then steps.
func (p *PP) TrainIteration(batches []data.Batch) (float64, error) {
	n := len(batches)
	if err := p.prog.compile(string(p.strategy), p.t, n); err != nil {
		return 0, err
	}
	p.beginIteration()
	for _, op := range p.prog.ops {
		var err error
		switch op.Phase {
		case 'F':
			err = p.forwardMB(op.MB, batches[op.MB])
		case 'B':
			err = p.backwardMBInput(op.MB, batches[op.MB])
		default:
			p.backwardMBParams(op.MB)
		}
		if err != nil {
			p.abortIteration()
			return 0, err
		}
	}
	// The stages' partial Σg² combine in one scalar all-reduce, so every
	// stage reaches the identical verdict.
	span := p.tr.Begin()
	err := p.step(n, func(local float64) (float64, error) {
		p.seq++
		return comm.AllReduceScalarSum(p.t, local, p.seq)
	}, p.flatG)
	p.tr.End(span, trace.CodeOpt, int64(p.seq), 0)
	if err != nil {
		return 0, err
	}
	return p.finishLoss(n)
}

var _ Trainer = (*PP)(nil)
