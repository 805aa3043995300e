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
// shards (ExportWeights), not from a gather.
type FSDP struct {
	t       Transport
	mdl     *model.Model // shells, bound to a gather for one pass at a time
	shards  [][]float32  // per-module owned shard, comm.ShardOf(rank, P) (fp32 master)
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

	// gathered is the buffer module gatheredMod is bound to for the running
	// pass (nil between passes); see bindGathered.
	gathered    []float32
	gatheredMod int

	// stats is the transport's meter; gather waits are recorded into it as
	// belt stall so FSDP's exposed communication is measured the same way
	// as WeiPipe's.
	stats *comm.Stats

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer
	stepRule
}

// NewFSDP builds an FSDP trainer for this rank.
func NewFSDP(t Transport, cfg model.Config, o Options) (*FSDP, error) {
	mdl := model.BuildShells(cfg)
	p := t.Size()
	r := t.Rank()
	f := &FSDP{t: t, mdl: mdl, o: o, arena: tensor.NewArena(), tr: o.Trace.Rank(r),
		stepRule: newStepRule(o, r), stats: t.CommStats()}
	off := 0
	for i := range mdl.Modules {
		size := mdl.ModuleParamSize(i)
		rg := comm.ShardRanges(size, p)[comm.ShardOf(r, p)]
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
	f.stats.RecordBeltStall(time.Since(start))
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

	// Reduce-scatter each module's gradient: the owned shard's sum lands in
	// place in gradFlat, and is scaled and stepped from there.
	optSpan := f.tr.Begin()
	invN := gradFactor(len(batches))
	gradShards := make([][]float32, nMods)
	for i := 0; i < nMods; i++ {
		f.seq++
		shard, err := comm.ReduceScatterSum(f.t, f.gradFlat[i], f.seq)
		if err != nil {
			return 0, err
		}
		tensor.ScaleF32(shard, shard, invN)
		gradShards[i] = shard
	}
	// The step rule's Σg² spans all shards (one scalar all-reduce gives
	// every rank the identical verdict), then step.
	var sumSq float64
	if f.needSumSq() {
		var local float64
		for _, s := range gradShards {
			local += sumSquares(s)
		}
		var err error
		if sumSq, err = f.shardOrderSum(local); err != nil {
			return 0, err
		}
	}
	if _, skip := f.decide(sumSq, gradShards...); !skip {
		for i := 0; i < nMods; i++ {
			f.opts[i].Step(f.shards[i], gradShards[i])
		}
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
