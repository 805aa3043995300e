package pipeline

import (
	"fmt"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/order"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// FSDP is fully-sharded data parallelism in the ZeRO-3 style the paper
// benchmarks through DeepSpeed: every rank owns a 1/P shard of each
// module's parameters, gradients and optimizer state. Parameters are
// materialised module-by-module with a ring all-gather immediately before
// a forward or backward use and dropped after it, unless order.FSDP keeps
// them for a use close behind (across the forward→backward turnaround and
// a microbatch boundary), as DeepSpeed keeps a parameter whose reuse
// distance is short; gradients are ring reduce-scattered so each rank keeps
// only its shard. Data flow is data-parallel: each rank trains its
// round-robin share of the microbatches.
//
// A rank keeps its shards and nothing else of the weights: the model is
// shells (model.BuildShells), and like WeiPipe's belt the gathers are never
// copied into it — a module is bound to its gathered buffer
// (model.BindChunk) for the passes that use it and the buffer goes back to
// the pool afterwards. The assembled weights come from every rank's shards
// (ExportWeights), not from a gather.
type FSDP struct {
	// owned's pieces are the rank's shard of every module, in module order:
	// shard comm.ShardOf(rank, P). Its model is shells, at most two bound to
	// a gather at a time.
	owned
	t     Transport
	o     Options
	seq   int
	arena *tensor.Arena
	// grads accumulates an iteration's full-model gradients. The sets own no
	// storage: module i's is bound for good to gradFlat[i], the flat buffer
	// the reduce-scatter consumes as it lies.
	grads    []*nn.ParamSet
	gradFlat [][]float32

	// held are the gathers modules are bound to: the running pass's module
	// and at most one kept for its next use (order.FSDP). A free slot has a
	// nil buf.
	held [2]struct {
		buf []float32
		mod int
	}

	// stats is the transport's meter; gather waits are recorded into it as
	// belt stall so FSDP's exposed communication is measured the same way
	// as WeiPipe's.
	stats *comm.Stats

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer
}

// NewFSDP builds an FSDP trainer for this rank.
func NewFSDP(t Transport, cfg model.Config, o Options) (*FSDP, error) {
	mdl := model.BuildShells(cfg)
	p := t.Size()
	r := t.Rank()
	f := &FSDP{owned: owned{mdl: mdl, stepRule: newStepRule(o, r)}, t: t, o: o,
		arena: tensor.NewArena(), tr: o.Trace.Rank(r), stats: t.CommStats()}
	off := 0
	for i := range mdl.Modules {
		size := mdl.ModuleParamSize(i)
		rg := comm.ShardRanges(size, p)[comm.ShardOf(r, p)]
		shard := make([]float32, rg[1]-rg[0])
		// Build the module, cut this rank's shard out of it and drop it: at
		// most one full module is resident at a time.
		mdl.InitModule(i).Params().FlattenRange(rg[0], shard)
		f.pieces = append(f.pieces, piece{off: off + rg[0], w: shard, opt: optim.NewAdamW(len(shard), o.Adam)})
		off += size
		f.gradFlat = append(f.gradFlat, make([]float32, size))
		g := mdl.Modules[i].Params().NewUnbound()
		g.Bind(f.gradFlat[i])
		f.grads = append(f.grads, g)
	}
	return f, nil
}

// shardLens returns every rank's shard length for module i.
func (f *FSDP) shardLens(i int) []int {
	p := f.t.Size()
	lens := make([]int, p)
	for q, rg := range comm.ShardRanges(f.mdl.ModuleParamSize(i), p) {
		lens[q] = rg[1] - rg[0]
	}
	return lens
}

// gather all-gathers module i's weights in place, on the compute thread,
// recording the wait as belt stall so FSDP's exposed communication is
// measured the same way as WeiPipe's. The caller owns the returned buffer.
func (f *FSDP) gather(i int) ([]float32, error) {
	f.seq++
	span := f.tr.Begin()
	start := time.Now()
	full, err := comm.AllGather(f.t, f.pieces[i].w, f.shardLens(i), f.seq)
	f.tr.End(span, trace.CodeStall, int64(comm.KindWeight), int64(i))
	f.stats.RecordBeltStall(time.Since(start))
	return full, err
}

// bindGathered gathers module i into a free held slot and makes the module
// a view of it; release(i) unbinds the module and returns the buffer to the
// pool, and releaseHeld does so for every slot (the end of an aborted
// iteration).
func (f *FSDP) bindGathered(i int) error {
	full, err := f.gather(i)
	if err != nil {
		return err
	}
	for k := range f.held {
		if h := &f.held[k]; h.buf == nil {
			f.mdl.BindChunk(i, i+1, full)
			h.buf, h.mod = full, i
			return nil
		}
	}
	panic("pipeline: FSDP holds a third gathered module")
}

func (f *FSDP) release(i int) {
	for k := range f.held {
		if h := &f.held[k]; h.buf != nil && h.mod == i {
			f.mdl.UnbindChunk(i, i+1)
			comm.Release(h.buf)
			h.buf = nil
		}
	}
}

func (f *FSDP) releaseHeld() {
	for _, h := range f.held {
		f.release(h.mod)
	}
}

// TrainIteration implements Trainer.
func (f *FSDP) TrainIteration(batches []data.Batch) (float64, error) {
	p := f.t.Size()
	if len(batches)%p != 0 {
		return 0, fmt.Errorf("pipeline: FSDP needs microbatch count divisible by %d ranks", p)
	}
	mine := data.Split(batches, p)[f.t.Rank()]
	nMods := len(f.mdl.Modules)
	for _, g := range f.gradFlat {
		clear(g)
	}
	var lossSum float64

	// An iteration that ends early leaves no module bound to a pool buffer.
	defer f.releaseHeld()

	var (
		caches []*nn.Cache
		x, dy  *tensor.Tensor
	)
	for _, u := range order.FSDP(nMods, len(mine)) {
		i, b, mb := u.Chunk, mine[u.MB], int64(u.MB)
		if u.Gather {
			if err := f.bindGathered(i); err != nil {
				return 0, err
			}
		}
		interior := i != 0 && i != nMods-1
		if u.Phase == 'F' {
			if i == 0 {
				caches = newCaches(0, nMods, b.G(), b.S(), f.arena)
				x, dy = nil, nil
			}
			span := f.tr.Begin()
			var l float64
			x, l = forwardModule(f.mdl, i, x, b, caches[i])
			f.tr.End(span, trace.CodeF, mb, int64(i))
			lossSum += l
			if f.o.Recompute && interior {
				caches[i].DropAllButX()
			}
		} else {
			c := caches[i]
			span := f.tr.Begin()
			if f.o.Recompute && interior {
				nn.Recompute(f.mdl.Modules[i], c)
			}
			dy = f.mdl.Modules[i].BackwardInput(dy, c)
			f.tr.End(span, trace.CodeB, mb, int64(i))
			span = f.tr.Begin()
			f.mdl.Modules[i].BackwardParams(c, f.grads[i])
			f.tr.End(span, trace.CodeW, mb, int64(i))
		}
		// Dropping a gather the plan does not keep is FSDP's "free".
		if !u.Keep {
			f.release(i)
		}
		if u.Phase == 'B' && i == 0 {
			f.arena.Reset()
		}
	}

	// Reduce-scatter each module's gradient: the owned shard's sum lands in
	// place in gradFlat, and is scaled and stepped from there. The step
	// rule's Σg² spans all shards, summed in shard order.
	optSpan := f.tr.Begin()
	gradShards := make([][]float32, nMods)
	for i := 0; i < nMods; i++ {
		f.seq++
		shard, err := comm.ReduceScatterSum(f.t, f.gradFlat[i], f.seq)
		if err != nil {
			return 0, err
		}
		gradShards[i] = shard
	}
	if err := f.step(len(batches), f.shardOrderSum, gradShards...); err != nil {
		return 0, err
	}
	f.tr.End(optSpan, trace.CodeOpt, int64(f.seq), 0)

	f.seq++
	sum, err := comm.AllReduceScalarSum(f.t, lossSum, f.seq)
	if err != nil {
		return 0, err
	}
	return sum / float64(len(batches)), nil
}

// shardOrderSum sums every rank's local value — a float32 partial over the
// shard it owns — in shard order, so the result does not depend on which
// rank owns which shard. The order is the one comm.AllReduceScalarSum gives
// when rank k holds shard k: its one element lies in the last shard, so the
// ring adds shard p−1's partial first, then 0, 1, …, p−2. AllGather lays the
// partials out by shard (rank r's at comm.ShardOf(r, p)) and every rank
// adds them in that order, in float32, getting the same bits.
func (f *FSDP) shardOrderSum(local float64) (float64, error) {
	p := f.t.Size()
	ones := make([]int, p)
	for i := range ones {
		ones[i] = 1
	}
	f.seq++
	parts, err := comm.AllGather(f.t, []float32{float32(local)}, ones, f.seq)
	if err != nil {
		return 0, err
	}
	sum := parts[p-1]
	for _, v := range parts[:p-1] {
		sum += v
	}
	comm.Release(parts)
	return float64(sum), nil
}

var _ Trainer = (*FSDP)(nil)
