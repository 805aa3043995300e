// Package pipeline implements the functional distributed-training runtimes:
// the paper's WeiPipe variants (Naive, Interleave, WZB1, WZB2) and every
// baseline it compares against (GPipe, 1F1B, ZB1, ZB2, FSDP/ZeRO-3, DP),
// plus the serial reference they are all checked against.
//
// Ranks are goroutines (or processes, over the TCP transport) communicating
// only through comm.Transport. Every strategy consumes the same global
// microbatch list and performs one optimizer step per iteration; the test
// suite asserts that all of them land on the same post-step weights as the
// serial reference within floating-point tolerance.
package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/order"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// Strategy names a parallel training strategy.
type Strategy string

// The implemented strategies.
const (
	StrategySerial            Strategy = "serial"
	StrategyDP                Strategy = "dp"
	StrategyFSDP              Strategy = "fsdp"
	StrategyGPipe             Strategy = "gpipe"
	Strategy1F1B              Strategy = "1f1b"
	StrategyZB1               Strategy = "zb1"
	StrategyZB2               Strategy = "zb2"
	StrategyWeiPipeNaive      Strategy = "weipipe-naive"
	StrategyWeiPipeInterleave Strategy = "weipipe-interleave"
	StrategyWZB1              Strategy = "wzb1"
	StrategyWZB2              Strategy = "wzb2"
	// StrategyWZB2G is WZB2 with topology-aware grouped weight belts: the
	// two weight belts circulate only inside contiguous rank groups
	// (Options.GroupSize ranks each, the fast fabric), and each chunk
	// crosses the slow inter-group links exactly once per iteration via a
	// deduplicated holder-ring shard exchange. Bit-identical to WZB2.
	StrategyWZB2G Strategy = "wzb2g"
	// StrategyWeiPipeDP is the hybrid WeiPipe×DP runtime (WeiPipeDP):
	// weipipe-interleave rings of Options.GroupSize contiguous ranks, one
	// data-parallel replica each. 0 or a size that does not divide the
	// world gives one ring of every rank. Not in Strategies(): it is a
	// composition of two of them, not a schedule of its own.
	StrategyWeiPipeDP Strategy = "weipipe-dp"
)

// Strategies lists every distributed strategy (excluding the serial
// reference), in the order the benchmarks report them.
func Strategies() []Strategy {
	return []Strategy{
		Strategy1F1B, StrategyZB1, StrategyZB2, StrategyFSDP,
		StrategyWeiPipeInterleave, StrategyWeiPipeNaive,
		StrategyWZB1, StrategyWZB2, StrategyWZB2G, StrategyGPipe, StrategyDP,
	}
}

// Options configures a trainer.
type Options struct {
	// Optimizer hyperparameters (AdamW).
	Adam optim.AdamWConfig
	// Recompute enables activation checkpointing: interior modules keep
	// only their input between forward and backward and re-run forward
	// before the B pass. Serial, DP, FSDP, GPipe, 1F1B and every WeiPipe
	// variant honour it, wzb1 and wzb2 included; ZB1 and ZB2 force it off
	// (the paper recomputes for every strategy but its zero-bubble
	// baselines). Measured at H 64, S 512, L 4, one sequence per
	// microbatch: a microbatch holds 1.3 MB of activations between its
	// forward and its B pass instead of 9.3 MB, so 1F1B's rank 0, with four
	// microbatches in flight, peaks at 4.4 MB of arena instead of 10.3 MB.
	// What a microbatch holds between its B and W passes (11.6 MB: W's
	// stash) does not change, so a rank with one microbatch in flight gains
	// nothing: Serial peaks at 13.4 MB either way. The price is a second
	// forward of every interior module. Off by default; on the benchmark's
	// long-1f1b it costs 29 % step time (step_ms_p50 37.3 → 48.1 ms) for
	// 27 % less peak RSS (44.9 → 32.8 MB), and on long-wzb2, whose peak is
	// the W stash, 30 % step time (35.3 → 46.0 ms) for 1 % (71.3 → 70.5 MB);
	// 4 of 4 alternating pairs each way, EXPERIMENTS.md.
	Recompute bool
	// ClipNorm, when positive, clips the global (cross-rank) gradient norm
	// to this value before the optimizer step. Distributed strategies
	// combine their local partial norms with a scalar all-reduce. Off (0)
	// by default; at 1 it costs 8 % step time on the benchmark's
	// wide-fsdp-tcp (step_ms_p50 74.8 → 80.6 ms) and 10 % on wide-wzb2-tcp
	// (83.5 → 91.9 ms), 0 of 4 alternating pairs faster, and stays within
	// noise on long-* (EXPERIMENTS.md).
	ClipNorm float64
	// Guard skips the optimizer step whenever the globally agreed gradient
	// Σg² is non-finite or spikes: more than optim.SpikeThreshold robust σ
	// above the median of the last optim.SpikeWindow accepted norms (see
	// stepRule). A single NaN, an overflow or a corrupt batch then cannot
	// poison the weights. The verdict is global, so every rank and buddy
	// shadow agrees; skipped and flagged steps are counted (SkippedSteps,
	// SpikeSteps). A finite Σg² is judged only once the window is full,
	// since over a few norms the MAD is small and early drift reads as a
	// spike; +Inf is skipped at once. Off by default. Its Σg² reduction, a
	// sync point before every step, measured within noise on the four
	// benchmark workloads (step_ms_p50 −4 % to +0 %, 4 alternating pairs
	// each). Healthy weipipe-train runs skip nothing (wzb2, 1f1b and fsdp,
	// 40 steps at seeds 1, 2, 3, 7 and 42); whether the four workloads
	// also run clean, each of which skipped one step under a 3-norm start,
	// is not re-measured. EXPERIMENTS.md has the runs.
	Guard bool
	// Trace, when non-nil, receives runtime spans from every rank: F/B/W
	// compute stages, optimizer steps, exposed-communication stalls, belt
	// relays and checkpoint barriers. All ranks of
	// a run share the one Set (each pulls its own tracer by rank), so the
	// per-rank timelines align on a common monotonic epoch. Nil means
	// tracing off, which costs one pointer test per instrumentation site.
	// On, the benchmark's traced runs put it at 8–13 % of the step on
	// long-* and within their noise (−9 to +10 %) on wide-*
	// (trace.overhead_pct, two runs each).
	Trace *trace.Set `json:"-"`
	// Integrity enables end-to-end silent-data-corruption defense on
	// WeiPipe trainers: every belt chunk carries a CRC32 trailer sealed at
	// its origin over the canonical wire-value domain and verified at
	// consumption (surviving relay hops and the lossy bf16 codec),
	// and the resident fp32 master weights and optimizer moments are
	// guarded by checksums refreshed after each legitimate mutation. A
	// mismatch surfaces as a typed *comm.IntegrityError, which RunResilient
	// treats as lost rank state — the same buddy-harvest/checkpoint repair
	// path a crash takes. Off by default: the belt hot path then carries no
	// trailer, runs no checks and allocates nothing extra. On, it costs
	// 19 % step time on the benchmark's wide-wzb2-tcp (step_ms_p50 85.3 →
	// 101.6 ms, 4 of 4 alternating pairs slower) and 5 % on long-wzb2
	// (34.4 → 36.1 ms, 3 of 4); long-1f1b and wide-fsdp-tcp run no WeiPipe
	// trainer and stay within noise (EXPERIMENTS.md). All ranks of a run
	// must agree on it (payload sizes change).
	Integrity bool
	// GroupSize partitions the ring into contiguous blocks of this many
	// ranks for the grouped-belt strategy (wzb2g), the WeiPipe rings of
	// weipipe-dp and link-tier traffic accounting. For wzb2g, 0 picks a
	// topology-friendly default (4 when the ring divides by 4, else 2, else
	// flat) and a value that does not divide the ring size falls back to
	// the flat belt (which keeps elastic shrink-to-p−1 working); for
	// weipipe-dp either gives one ring of every rank. All ranks of a run
	// must agree on it.
	GroupSize int
	// BitFlip, when non-nil, is the seeded in-memory fault injector of the
	// chaos tier: it flips scheduled bits in master weights, optimizer
	// moments and staged belt payloads as the schedule's (rank, iteration)
	// points pass. Shared by every rank of a run (and across restart
	// attempts — events fire once). Test/chaos use only.
	BitFlip *BitFlipInjector `json:"-"`

	// buddy enables buddy replication on WeiPipe trainers (buddy.go): each
	// rank also shadows its ring successor's owned chunk, so the repair
	// ladder can rebuild a dead rank's shard. It exists only for that
	// ladder, so only RunRank sets it, whenever repair is on (always in a
	// weipipe-launch process, under an elastic policy in RunResilient) and
	// the ring has two ranks or more. It adds no KindWeight or
	// KindGrad message and does not change the owned weights. Ignored by
	// non-WeiPipe strategies and single-rank rings.
	buddy bool
}

// gradFactor returns the factor that turns an accumulated gradient sum over
// n microbatches into the mean gradient.
func gradFactor(n int) float32 { return float32(1.0 / float64(n)) }

// sumSquares returns Σ g².
func sumSquares(g []float32) float64 {
	var s float64
	for _, v := range g {
		s += float64(v) * float64(v)
	}
	return s
}

// Trainer runs training iterations for one rank. Every strategy implements
// all of it; what only some strategies can do (ArenaMeter) is asked for
// separately.
type Trainer interface {
	// TrainIteration processes the full global microbatch list (every rank
	// receives the same slice) and performs one optimizer step. It returns
	// the mean microbatch loss (identical on every rank).
	TrainIteration(batches []data.Batch) (float64, error)
	// Model returns the rank's model: its module list, shapes and wire
	// layout. Only serial and DP give it storage of its own. Every other
	// trainer builds shells (model.BuildShells) and keeps the weights it
	// owns in its own flat state — WeiPipe its chunk, PP its stage, FSDP its
	// shards — so a module holds weights only while bound: to that state
	// (WeiPipe's owned chunk, PP's stage) or to a belt or gather buffer for
	// the length of one pass. Read and write weights through ExportWeights
	// and LoadWeights (AssembleWeights, RestoreSnapshot), never off Model().
	Model() *model.Model
	// ExportWeights copies the weights the rank holds — the authoritative,
	// post-step copy — into their places in full, the model's flat
	// parameter vector (wire order, Model().NumParams() long), and returns
	// the ranges [lo, hi) of full it wrote. Which elements those are is the
	// strategy's: the whole model (serial, DP), the rank's stage (PP), its
	// owned chunk (WeiPipe) or its shard of every module (FSDP).
	ExportWeights(full []float32) [][2]int
	// LoadWeights replaces the rank's weights with their elements of full.
	LoadWeights(full []float32)
	// SetLR sets the optimizer learning rate for the next iterations (for
	// warm-up/decay schedules).
	SetLR(lr float64)
	// SkippedSteps and SpikeSteps count the steps the guard skipped, and
	// how many of those spiked (see Options.Guard).
	SkipCounter
	SpikeSteps() int
	// Recoverable exports and restores the optimizer state for
	// coordinated checkpoints.
	Recoverable
}

// New builds a trainer for the given strategy on transport t. cfg must be
// identical on every rank (models are reconstructed from the seed rather
// than broadcast).
func New(s Strategy, t Transport, cfg model.Config, opts Options) (Trainer, error) {
	switch s {
	case StrategySerial:
		if t.Size() != 1 {
			return nil, fmt.Errorf("pipeline: serial strategy needs exactly 1 rank, got %d", t.Size())
		}
		return NewSerial(cfg, opts), nil
	case StrategyDP:
		return NewDP(t, cfg, opts)
	case StrategyFSDP:
		return NewFSDP(t, cfg, opts)
	case StrategyGPipe, Strategy1F1B, StrategyZB1, StrategyZB2:
		return NewPP(t, cfg, opts, s)
	case StrategyWeiPipeNaive:
		return NewWeiPipe(t, cfg, opts, WeiPipeNaive)
	case StrategyWeiPipeInterleave:
		return NewWeiPipe(t, cfg, opts, WeiPipeInterleave)
	case StrategyWZB1:
		return NewWeiPipe(t, cfg, opts, WeiPipeZB1)
	case StrategyWZB2:
		return NewWeiPipe(t, cfg, opts, WeiPipeZB2)
	case StrategyWZB2G:
		return NewWeiPipeGrouped(t, cfg, opts)
	case StrategyWeiPipeDP:
		ring := opts.GroupSize
		if ring <= 0 || t.Size()%ring != 0 {
			ring = t.Size()
		}
		return NewWeiPipeDP(t, cfg, opts, WeiPipeInterleave, ring)
	default:
		return nil, fmt.Errorf("pipeline: unknown strategy %q", s)
	}
}

// program is a rank's compiled program order: the F/B/W passes it runs in one
// iteration, which the pipelined trainers interpret op by op. The orders
// themselves are written in internal/order, nowhere in this package.
type program struct {
	ops []order.Op
	n   int // the microbatch count ops was compiled for
}

// compile makes pr the program of t's rank under strategy for n microbatches.
// The list changes only with n, so a training run compiles it once.
func (pr *program) compile(strategy string, t Transport, n int) error {
	if pr.ops != nil && pr.n == n {
		return nil
	}
	ops, err := order.Program(strategy, t.Rank(), t.Size(), n)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	pr.ops, pr.n = ops, n
	return nil
}

// Transport aliases comm.Transport; ranks communicate only through it.
type Transport = comm.Transport

// Tag aliases comm.Tag.
type Tag = comm.Tag

// forwardModule runs module i of mdl on x for batch b, handling the
// embedding and head specially. Returns the output activations (nil for the
// head) and, for the head, the microbatch loss.
func forwardModule(mdl *model.Model, i int, x *tensor.Tensor, b data.Batch, c *nn.Cache) (*tensor.Tensor, float64) {
	switch m := mdl.Modules[i].(type) {
	case *nn.Embedding:
		return m.ForwardTokens(b.Tokens, c), 0
	case *nn.OutputHead:
		return nil, m.ForwardLoss(x, b.Targets, c)
	default:
		return m.Forward(x, c), 0
	}
}

// forwardRange runs modules [lo, hi) on batch b starting from activations x
// (nil when lo == 0). caches must have hi−lo entries. When recompute is
// true, interior modules drop their intermediates after forward. Returns
// the boundary activations leaving the range (nil if the range ends with
// the head) and the loss (non-zero only if the head is inside the range).
func forwardRange(mdl *model.Model, lo, hi int, x *tensor.Tensor, b data.Batch,
	caches []*nn.Cache, recompute bool) (*tensor.Tensor, float64) {
	var loss float64
	last := len(mdl.Modules) - 1
	for i := lo; i < hi; i++ {
		c := caches[i-lo]
		var l float64
		x, l = forwardModule(mdl, i, x, b, c)
		loss += l
		if recompute && i != 0 && i != last {
			c.DropAllButX()
		}
	}
	return x, loss
}

// backwardRangeB runs the B pass (BackwardInput) backwards through modules
// [lo, hi), recomputing the forward of checkpointed modules first. dy is
// the gradient entering from above (ignored when the range ends with the
// head, which owns the loss). Returns the gradient leaving below (nil when
// the range starts with the embedding).
func backwardRangeB(mdl *model.Model, lo, hi int, dy *tensor.Tensor,
	caches []*nn.Cache, recompute bool) *tensor.Tensor {
	last := len(mdl.Modules) - 1
	for i := hi - 1; i >= lo; i-- {
		c := caches[i-lo]
		if recompute && i != 0 && i != last {
			nn.Recompute(mdl.Modules[i], c)
		}
		dy = mdl.Modules[i].BackwardInput(dy, c)
	}
	return dy
}

// backwardRangeW runs the W pass (BackwardParams) for modules [lo, hi),
// accumulating into grads (indexed by global module index).
func backwardRangeW(mdl *model.Model, lo, hi int, caches []*nn.Cache, grads []*nn.ParamSet) {
	for i := lo; i < hi; i++ {
		mdl.Modules[i].BackwardParams(caches[i-lo], grads[i])
	}
}

// newCaches allocates one cache per module in [lo, hi), all drawing scratch
// from arena (which may be nil for heap allocation). The runner that owns
// arena must not reset it before the last module's W pass has consumed the
// stashes.
func newCaches(lo, hi, g, s int, arena *tensor.Arena) []*nn.Cache {
	out := make([]*nn.Cache, hi-lo)
	for i := range out {
		out[i] = nn.NewCache(g, s)
		out[i].Arena = arena
	}
	return out
}

// arenaPool hands out per-microbatch scratch arenas: a runner acquires one
// arena per in-flight microbatch and releases it (reset) once that
// microbatch's W passes have finished. Every arena draws from the pool's one
// store, so a buffer any microbatch frees — mid-pass or at its release —
// feeds the next allocation of its length by any other, and the store holds
// the rank's peak of simultaneously live buffers rather than one high-water
// mark per in-flight microbatch.
type arenaPool struct {
	store *tensor.Store
	free  []*tensor.Arena
}

func (ap *arenaPool) acquire() *tensor.Arena {
	if n := len(ap.free); n > 0 {
		a := ap.free[n-1]
		ap.free = ap.free[:n-1]
		return a
	}
	if ap.store == nil {
		ap.store = tensor.NewStore()
	}
	return ap.store.NewArena()
}

// release resets a and returns it to the pool. Every tensor allocated from a
// must be dead: the caller has finished the owning microbatch's W pass.
func (ap *arenaPool) release(a *tensor.Arena) {
	if a == nil {
		return
	}
	a.Reset()
	ap.free = append(ap.free, a)
}

// highWater returns how many buffers the pool's store has made — the most
// this rank's microbatches have held at once (an upper bound: a buffer serves
// requests of its exact length only).
func (ap *arenaPool) highWater() int {
	if ap.store == nil {
		return 0
	}
	return ap.store.Slots()
}

// ArenaMeter is implemented by runners that recycle per-microbatch scratch
// arenas. ArenaHighWater reports how many scratch buffers the rank's arena
// store has made: the peak count of activation tensors its in-flight
// microbatches held at once, each freed at its last reader. It is the memory
// figure the weipipe-train -trace rollup surfaces next to the comm buffer gauges.
type ArenaMeter interface {
	ArenaHighWater() int
}

// zeroedGrads returns grads holding a zeroed gradient set for every module
// of mdl. A trainer keeps the slice across iterations: the sets are
// allocated on the first call and zeroed in place from then on, so a
// steady-state step allocates no gradient storage.
func zeroedGrads(mdl *model.Model, grads []*nn.ParamSet) []*nn.ParamSet {
	if grads == nil {
		for _, m := range mdl.Modules {
			grads = append(grads, m.Params().NewLike())
		}
		return grads
	}
	for _, g := range grads {
		g.Zero()
	}
	return grads
}

// flattenGrads copies every module's gradients into dst in wire order.
func flattenGrads(grads []*nn.ParamSet, dst []float32) {
	off := 0
	for _, g := range grads {
		g.FlattenInto(dst[off : off+g.Size()])
		off += g.Size()
	}
	if off != len(dst) {
		panic("pipeline: flattenGrads size mismatch")
	}
}
