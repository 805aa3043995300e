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
//
// A rank keeps its shards and nothing else of the weights: the model is
// shells (model.BuildShells), and like WeiPipe's belt the gathers are never
// copied into it — a module is bound to its gathered buffer
// (model.BindChunk) for the one pass that needs it and the buffer goes back
// to the pool afterwards. The assembled weights come from every rank's
// shards (Owner), not from a gather.
type FSDP struct {
	t       Transport
	mdl     *model.Model // shells, bound to a gather for one pass at a time
	shards  [][]float32  // per-module owned parameter shard (fp32 master)
	shardAt []int        // where each shard starts in the flat parameter vector
	opts    []*optim.AdamW
	o       Options
	seq     int
	arena   *tensor.Arena
	// grads accumulates an iteration's full-model gradients. The sets own no
	// storage: module i's is bound for good to gradFlat[i], the flat buffer
	// the reduce-scatter consumes as it lies.
	grads    []*nn.ParamSet
	gradFlat [][]float32
	skipped  int

	// gathered is the buffer module gatheredMod is bound to for the running
	// pass (nil between passes); see bindGathered.
	gathered    []float32
	gatheredMod int

	// stats is the transport's meter when it exposes one (nil otherwise);
	// gather waits are recorded into it as belt stall so FSDP's exposed
	// communication is measured the same way as WeiPipe's.
	stats *comm.Stats

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer
}

// NewFSDP builds an FSDP trainer for this rank.
func NewFSDP(t Transport, cfg model.Config, o Options) (*FSDP, error) {
	mdl := model.BuildShells(cfg)
	p := t.Size()
	r := t.Rank()
	f := &FSDP{t: t, mdl: mdl, o: o, arena: tensor.NewArena(), tr: o.Trace.Rank(t.Rank())}
	if m, ok := t.(comm.Meter); ok {
		f.stats = m.CommStats()
	}
	off := 0
	for i := range mdl.Modules {
		size := mdl.ModuleParamSize(i)
		rg := comm.ShardRanges(size, p)[r]
		shard := make([]float32, rg[1]-rg[0])
		// Build the module, cut this rank's shard out of it and drop it: at
		// most one full module is resident at a time.
		mdl.InitModule(i).Params().FlattenRange(rg[0], shard)
		f.shards = append(f.shards, shard)
		f.shardAt = append(f.shardAt, off+rg[0])
		off += size
		f.opts = append(f.opts, optim.NewAdamW(len(shard), o.Adam))
		f.gradFlat = append(f.gradFlat, make([]float32, size))
		g := mdl.Modules[i].Params().NewUnbound()
		g.Bind(f.gradFlat[i])
		f.grads = append(f.grads, g)
	}
	return f, nil
}

// Model implements Trainer: shells, which hold a module's weights only
// while a pass has it bound to its gather.
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

// gather all-gathers module i's weights in place, on the compute thread,
// recording the wait as belt stall so FSDP's exposed communication is
// measured the same way as WeiPipe's. The caller owns the returned buffer.
func (f *FSDP) gather(i int) ([]float32, error) {
	f.seq++
	span := f.tr.Begin()
	start := time.Now()
	full, err := comm.AllGather(f.t, f.shards[i], f.shardLens(i), f.seq)
	f.tr.End(span, trace.CodeStall, int64(comm.KindWeight), int64(i))
	f.stats.RecordBeltStallKind(comm.KindWeight, time.Since(start))
	return full, err
}

// bindGathered gathers module i and makes it a view of the result for one
// pass; releaseGathered ends the pass (and an aborted iteration) by
// unbinding the module and returning the buffer to the pool.
func (f *FSDP) bindGathered(i int) error {
	full, err := f.gather(i)
	if err != nil {
		return err
	}
	f.mdl.BindChunk(i, i+1, full)
	f.gathered, f.gatheredMod = full, i
	return nil
}

func (f *FSDP) releaseGathered() {
	if f.gathered == nil {
		return
	}
	f.mdl.UnbindChunk(f.gatheredMod, f.gatheredMod+1)
	comm.Release(f.gathered)
	f.gathered = nil
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
	defer f.releaseGathered()

	for mi, b := range mine {
		mb := int64(mi)
		caches := newCaches(0, nMods, b.G(), b.S(), f.arena)

		// Forward: bind each module to its gather just in time; giving the
		// buffer back right after the pass is FSDP's "free".
		var x *tensor.Tensor
		for i := 0; i < nMods; i++ {
			if err := f.bindGathered(i); err != nil {
				return 0, err
			}
			span := f.tr.Begin()
			var l float64
			x, l = forwardModule(f.mdl, i, x, b, caches[i])
			f.tr.End(span, trace.CodeF, mb, int64(i))
			f.releaseGathered()
			lossSum += l
			if f.o.Recompute && i != 0 && i != nMods-1 {
				caches[i].DropAllButX()
			}
		}

		// Backward: gather again before each module's B+W pass.
		var dy *tensor.Tensor
		for i := nMods - 1; i >= 0; i-- {
			if err := f.bindGathered(i); err != nil {
				return 0, err
			}
			c := caches[i]
			span := f.tr.Begin()
			if f.o.Recompute && i != 0 && i != nMods-1 {
				nn.Recompute(f.mdl.Modules[i], c)
			}
			dy = f.mdl.Modules[i].BackwardInput(dy, c)
			f.tr.End(span, trace.CodeB, mb, int64(i))
			span = f.tr.Begin()
			f.mdl.Modules[i].BackwardParams(c, f.grads[i])
			f.tr.End(span, trace.CodeW, mb, int64(i))
			f.releaseGathered()
		}
		f.arena.Reset()
	}

	// Reduce-scatter each module's gradient into the owned shards.
	optSpan := f.tr.Begin()
	invN := gradFactor(len(batches))
	gradShards := make([][]float32, nMods)
	for i := 0; i < nMods; i++ {
		f.seq++
		shard, err := comm.ReduceScatterSum(f.t, f.gradFlat[i], f.seq)
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
	if f.o.GuardNonFinite && !finiteSum(sumSq) {
		f.skipped++
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
	}
	for _, s := range gradShards {
		comm.Release(s) // received from the pool by the reduce-scatter
	}

	f.tr.End(optSpan, trace.CodeOpt, int64(f.seq), 0)

	f.seq++
	sum, err := comm.AllReduceScalarSum(f.t, lossSum, f.seq)
	if err != nil {
		return 0, err
	}
	return sum / float64(len(batches)), nil
}

var _ Trainer = (*FSDP)(nil)
