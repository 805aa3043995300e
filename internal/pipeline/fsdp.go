package pipeline

import (
	"fmt"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// FSDP is fully-sharded data parallelism in the ZeRO-3 style the paper
// benchmarks through DeepSpeed: every rank owns a 1/P shard of each
// module's parameters, gradients and optimizer state. Parameters are
// materialised module-by-module with a ring all-gather immediately before
// each forward and each backward use and dropped afterwards; gradients are
// ring reduce-scattered so each rank keeps only its shard. Data flow is
// data-parallel: each rank trains its round-robin share of the
// microbatches.
type FSDP struct {
	t      Transport
	mdl    *model.Model // weight buffer; authoritative state is the shards
	shards [][]float32  // per-module owned parameter shard (fp32 master)
	opts   []*optim.AdamW
	o      Options
	seq    int
	arena  *tensor.Arena
	// grads accumulates an iteration's full-model gradients before the
	// reduce-scatter; kept and re-zeroed across iterations (see zeroedGrads).
	grads   []*nn.ParamSet
	skipped int

	// stats is the transport's meter when it exposes one (nil otherwise);
	// gather waits are recorded into it as belt stall so FSDP's exposed
	// communication is measured the same way as WeiPipe's.
	stats *comm.Stats

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer
}

// NewFSDP builds an FSDP trainer for this rank.
func NewFSDP(t Transport, cfg model.Config, o Options) (*FSDP, error) {
	if o.Scaler != nil {
		o.Scaler = o.Scaler.Clone()
	}
	mdl := model.Build(cfg)
	p := t.Size()
	r := t.Rank()
	f := &FSDP{t: t, mdl: mdl, o: o, arena: tensor.NewArena(), tr: o.Trace.Rank(t.Rank())}
	if m, ok := t.(comm.Meter); ok {
		f.stats = m.CommStats()
	}
	for i := range mdl.Modules {
		size := mdl.ModuleParamSize(i)
		full := make([]float32, size)
		mdl.FlattenChunk(i, i+1, full)
		rg := comm.ShardRanges(size, p)[r]
		shard := make([]float32, rg[1]-rg[0])
		copy(shard, full[rg[0]:rg[1]])
		f.shards = append(f.shards, shard)
		f.opts = append(f.opts, optim.NewAdamW(len(shard), o.Adam))
	}
	return f, nil
}

// Model implements Trainer.
func (f *FSDP) Model() *model.Model { return f.mdl }

// shardLens returns every rank's shard length for module i.
func (f *FSDP) shardLens(i int) []int {
	p := f.t.Size()
	lens := make([]int, p)
	for q, rg := range comm.ShardRanges(f.mdl.ModuleParamSize(i), p) {
		lens[q] = rg[1] - rg[0]
	}
	return lens
}

// gatherModule all-gathers module i's weights into the local buffer.
func (f *FSDP) gatherModule(i int) error {
	f.seq++
	span := f.tr.Begin()
	start := time.Now()
	full, err := comm.AllGather(f.t, f.shards[i], f.shardLens(i), f.seq)
	f.tr.End(span, trace.CodeStall, int64(comm.KindWeight), int64(i))
	f.stats.RecordBeltStallKind(comm.KindWeight, time.Since(start))
	if err != nil {
		return err
	}
	f.mdl.SetChunk(i, i+1, full)
	comm.Release(full)
	return nil
}

// gatherItem is one prefetched module's gathered weights.
type gatherItem struct {
	full []float32
	err  error
}

// gatherStream prefetches module all-gathers one ahead of compute
// (Options.Overlap): a background goroutine runs the ring collectives for
// the microbatch loop's known gather sequence while the compute thread
// works on the previous module. The goroutine is the only transport user
// during the loop (so the collectives stay well-ordered), and the compute
// thread installs each buffer into the model at its consumption point (so
// model mutation stays single-threaded). Sequence numbers are assigned from
// the same counter in the same order as blocking mode, making the two modes
// indistinguishable on the wire.
type gatherStream struct {
	ch   chan gatherItem
	quit chan struct{}
}

// startGatherStream arms the prefetch goroutine for nMB local microbatches
// (forward gathers 0..n-1 then backward gathers n-1..0, per microbatch).
// The caller must pair it with stop().
func (f *FSDP) startGatherStream(nMB int) *gatherStream {
	nMods := len(f.mdl.Modules)
	plan := make([]int, 0, 2*nMods*nMB)
	for mb := 0; mb < nMB; mb++ {
		for i := 0; i < nMods; i++ {
			plan = append(plan, i)
		}
		for i := nMods - 1; i >= 0; i-- {
			plan = append(plan, i)
		}
	}
	s := &gatherStream{ch: make(chan gatherItem, 1), quit: make(chan struct{})}
	base := f.seq
	f.seq += len(plan) // reserve the stream's sequence range up front
	go func() {
		defer close(s.ch)
		for j, i := range plan {
			full, err := comm.AllGather(f.t, f.shards[i], f.shardLens(i), base+j+1)
			if err != nil {
				full = nil
			}
			select {
			case <-s.quit:
				comm.Release(full)
				return
			default:
			}
			select {
			case s.ch <- gatherItem{full: full, err: err}:
			case <-s.quit:
				comm.Release(full)
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return s
}

// nextGather installs the stream's next prefetched module (which must be
// module i — the stream replays the same order as the compute loop).
func (f *FSDP) nextGather(s *gatherStream, i int) error {
	span := f.tr.Begin()
	start := time.Now()
	it, ok := <-s.ch
	f.tr.End(span, trace.CodeStall, int64(comm.KindWeight), int64(i))
	f.stats.RecordBeltStallKind(comm.KindWeight, time.Since(start))
	if !ok {
		return fmt.Errorf("pipeline: gather stream exhausted")
	}
	if it.err != nil {
		return it.err
	}
	f.mdl.SetChunk(i, i+1, it.full)
	comm.Release(it.full)
	return nil
}

// stop tears the stream down, draining staged buffers back to the pool. It
// never blocks; a goroutine still inside a collective bails at its next
// quit check or when the transport closes.
func (s *gatherStream) stop() {
	close(s.quit)
	for {
		select {
		case it, ok := <-s.ch:
			if !ok {
				return
			}
			comm.Release(it.full)
		default:
			return
		}
	}
}

// TrainIteration implements Trainer.
func (f *FSDP) TrainIteration(batches []data.Batch) (float64, error) {
	p := f.t.Size()
	if len(batches)%p != 0 {
		return 0, fmt.Errorf("pipeline: FSDP needs microbatch count divisible by %d ranks", p)
	}
	mine := data.Split(batches, p)[f.t.Rank()]
	if f.o.Scaler != nil {
		f.mdl.Head.LossScale = float32(f.o.Scaler.Scale())
	}
	nMods := len(f.mdl.Modules)
	f.grads = zeroedGrads(f.mdl, f.grads, 0, nMods)
	grads := f.grads
	var lossSum float64

	// With Overlap the microbatch loop's gathers run one ahead of compute on
	// a background stream; without it every gather blocks in place. Both
	// paths install identical bytes under identical sequence numbers.
	var stream *gatherStream
	if f.o.Overlap {
		stream = f.startGatherStream(len(mine))
		defer stream.stop()
	}
	gather := func(i int) error {
		if stream != nil {
			return f.nextGather(stream, i)
		}
		return f.gatherModule(i)
	}

	for mi, b := range mine {
		mb := int64(mi)
		caches := newCaches(0, nMods, b.G(), b.S(), f.arena)

		// Forward: gather each module just in time; the buffer is
		// overwritten by the next gather, which is FSDP's "free".
		var x *tensor.Tensor
		for i := 0; i < nMods; i++ {
			if err := gather(i); err != nil {
				return 0, err
			}
			span := f.tr.Begin()
			var l float64
			x, l = forwardModule(f.mdl, i, x, b, caches[i])
			f.tr.End(span, trace.CodeF, mb, int64(i))
			lossSum += l
			if f.o.Recompute && i != 0 && i != nMods-1 {
				caches[i].DropAllButX()
			}
		}

		// Backward: gather again before each module's B+W pass.
		var dy *tensor.Tensor
		for i := nMods - 1; i >= 0; i-- {
			if err := gather(i); err != nil {
				return 0, err
			}
			c := caches[i]
			span := f.tr.Begin()
			if f.o.Recompute && i != 0 && i != nMods-1 {
				f.mdl.Modules[i].Forward(c.X, c)
			}
			dy = f.mdl.Modules[i].BackwardInput(dy, c)
			f.tr.End(span, trace.CodeB, mb, int64(i))
			span = f.tr.Begin()
			f.mdl.Modules[i].BackwardParams(c, grads[i])
			f.tr.End(span, trace.CodeW, mb, int64(i))
		}
		f.arena.Reset()
	}

	// Reduce-scatter each module's gradient into the owned shards.
	optSpan := f.tr.Begin()
	invN := gradFactor(f.o, len(batches))
	gradShards := make([][]float32, nMods)
	for i := 0; i < nMods; i++ {
		// Scratch from the pool the collectives release into (GetBuf
		// contents are arbitrary; the flatten writes every element).
		full := comm.GetBuf(f.mdl.ModuleParamSize(i))
		flattenGradsRange(f.mdl, grads, i, i+1, full)
		f.seq++
		shard, err := comm.ReduceScatterSum(f.t, full, f.seq)
		comm.Release(full)
		if err != nil {
			return 0, err
		}
		for j := range shard {
			shard[j] *= invN
		}
		gradShards[i] = shard
	}
	// Global-norm clip and non-finite guard across all shards (one scalar
	// all-reduce gives every rank the identical verdict), then step.
	var sumSq float64
	if needGlobalSumSq(f.o) {
		var local float64
		for _, s := range gradShards {
			local += sumSquares(s)
		}
		f.seq++
		var err error
		sumSq, err = comm.AllReduceScalarSum(f.t, local, f.seq)
		if err != nil {
			return 0, err
		}
	}
	if guardActive(f.o) && !finiteSum(sumSq) {
		f.skipped++
		if f.o.Scaler != nil {
			f.o.Scaler.Observe(false)
		}
	} else {
		if c := clipScale(f.o, sumSq); c != 1 {
			for _, s := range gradShards {
				for j := range s {
					s[j] *= c
				}
			}
		}
		for i := 0; i < nMods; i++ {
			f.opts[i].Step(f.shards[i], gradShards[i])
		}
		if f.o.Scaler != nil {
			f.o.Scaler.Observe(true)
		}
	}
	for _, s := range gradShards {
		comm.Release(s) // received from the pool by the reduce-scatter
	}

	f.tr.End(optSpan, trace.CodeOpt, int64(f.seq), 0)

	// Refresh the local buffer so Model() exposes post-step weights.
	for i := 0; i < nMods; i++ {
		if err := f.gatherModule(i); err != nil {
			return 0, err
		}
	}

	f.seq++
	sum, err := comm.AllReduceScalarSum(f.t, lossSum, f.seq)
	if err != nil {
		return 0, err
	}
	return sum / float64(len(batches)), nil
}

var _ Trainer = (*FSDP)(nil)
