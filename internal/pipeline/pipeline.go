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
	"math"

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
	// before the B pass. Ignored by the ZB strategies (the paper applies
	// recomputation to all strategies except zero-bubble ones).
	Recompute bool
	// MixedPrecision rounds weight and gradient payloads through fp16 and
	// activation-gradient payloads through bf16 at every send, emulating
	// the paper's wire format. Off in equivalence tests.
	MixedPrecision bool
	// ClipNorm, when positive, clips the global (cross-rank) gradient norm
	// to this value before the optimizer step. Distributed strategies
	// combine their local partial norms with a scalar all-reduce.
	ClipNorm float64
	// Scaler, when non-nil, enables dynamic loss scaling (the fp16
	// mixed-precision guard): the loss gradient is multiplied by the scale
	// at its source, gradients are unscaled before the step, and steps
	// with non-finite gradients are skipped while the scale halves.
	// Supported by the serial reference and the distributed runners (which
	// fold the non-finite check into a global scalar all-reduce so every
	// rank skips or steps identically).
	Scaler *optim.LossScaler
	// GuardNonFinite skips the optimizer step (without touching any loss
	// scale) whenever the global gradient is non-finite, so a single NaN/Inf
	// cannot poison the weights. The check rides the same scalar all-reduce
	// global-norm clipping uses, so every rank makes the identical decision.
	GuardNonFinite bool
	// BF16Wire selects the bf16 belt codec on the transport-facing helpers
	// (RunCluster and the CLIs): weight/grad belt payloads travel as 2-byte
	// bfloat16, halving belt bytes at a bounded rounding cost. Unlike the
	// other options it configures the *transport*, not the runner — trainers
	// built directly on a caller-owned Transport inherit whatever codec that
	// transport was created with.
	BF16Wire bool
	// Buddy enables buddy replication on WeiPipe trainers: each rank
	// additionally shadows its ring successor's owned chunk (fp32 weights,
	// AdamW moments and step count) by replaying the successor's optimizer
	// step from a dual-delivered copy of the retired gradient. The copy is
	// sent asynchronously by the retiring worker, adding no blocking send —
	// and no KindWeight/KindGrad message — to the training critical path.
	// Ignored by non-WeiPipe strategies and single-rank rings.
	Buddy bool
	// Trace, when non-nil, receives runtime spans from every rank: F/B/W
	// compute stages, optimizer steps, exposed-communication stalls, belt
	// relays and checkpoint barriers. All ranks of
	// a run share the one Set (each pulls its own tracer by rank), so the
	// per-rank timelines align on a common monotonic epoch. Nil means
	// tracing off, which costs one pointer test per instrumentation site.
	Trace *trace.Set
	// Integrity enables end-to-end silent-data-corruption defense on
	// WeiPipe trainers: every belt chunk carries a CRC32 trailer sealed at
	// its origin over the canonical wire-value domain and verified at
	// consumption (surviving relay hops and the lossy bf16/f16 codecs),
	// and the resident fp32 master weights and optimizer moments are
	// guarded by checksums refreshed after each legitimate mutation. A
	// mismatch surfaces as a typed *comm.IntegrityError, which RunResilient
	// treats as lost rank state — the same buddy-harvest/checkpoint repair
	// path a crash takes. Off by default: the belt hot path then carries no
	// trailer, runs no checks and allocates nothing extra. All ranks of a
	// run must agree on it (payload sizes change).
	Integrity bool
	// SpikeWindow, when positive, arms the windowed grad-norm spike
	// detector: the globally agreed Σg² of each step is compared against
	// the median + SpikeMAD·(1.4826·MAD) envelope of the last SpikeWindow
	// accepted norms. Detected spikes are counted (see SpikeCounter) and,
	// with SpikeSkip, skip the optimizer step exactly like the non-finite
	// guard — the verdict is global, so every rank and buddy shadow agrees.
	SpikeWindow int
	// SpikeMAD is the spike verdict threshold in robust standard
	// deviations; ≤ 0 defaults to 6.
	SpikeMAD float64
	// SpikeSkip makes detected spikes skip the optimizer step instead of
	// only counting them.
	SpikeSkip bool
	// GroupSize partitions the ring into contiguous blocks of this many
	// ranks for the grouped-belt strategy (wzb2g) and for link-tier
	// traffic accounting. 0 picks a topology-friendly default (4 when the
	// ring divides by 4, else 2, else flat); a value that does not divide
	// the ring size falls back to the flat belt (which keeps elastic
	// shrink-to-p−1 working). All ranks of a run must agree on it.
	GroupSize int
	// BitFlip, when non-nil, is the seeded in-memory fault injector of the
	// chaos tier: it flips scheduled bits in master weights, optimizer
	// moments and staged belt payloads as the schedule's (rank, iteration)
	// points pass. Shared by every rank of a run (and across restart
	// attempts — events fire once). Test/chaos use only.
	BitFlip *BitFlipInjector
}

// guardActive reports whether non-finite gradients must skip the step.
func guardActive(opts Options) bool { return opts.GuardNonFinite || opts.Scaler != nil }

// needGlobalSumSq reports whether the step phase needs the global Σg²
// (for clipping, for the non-finite guard, or for the spike detector —
// one all-reduce serves every consumer).
func needGlobalSumSq(opts Options) bool {
	return opts.ClipNorm > 0 || guardActive(opts) || opts.SpikeWindow > 0
}

// finiteSum reports whether a gradient sum-of-squares is finite.
func finiteSum(sumSq float64) bool {
	return !math.IsNaN(sumSq) && !math.IsInf(sumSq, 0)
}

// gradFactor returns the factor that turns an accumulated gradient sum into
// the (unscaled) mean gradient: 1/(n·scale), folding the dynamic loss scale
// into the same multiply as the microbatch average.
func gradFactor(opts Options, n int) float32 {
	scale := 1.0
	if opts.Scaler != nil {
		scale = opts.Scaler.Scale()
	}
	return float32(1.0 / (float64(n) * scale))
}

// clipScale returns the factor to scale gradients by so the global norm
// (whose square is sumSq) does not exceed opts.ClipNorm.
func clipScale(opts Options, sumSq float64) float32 {
	if opts.ClipNorm <= 0 {
		return 1
	}
	norm := math.Sqrt(sumSq)
	if norm <= opts.ClipNorm {
		return 1
	}
	return float32(opts.ClipNorm / norm)
}

// sumSquares returns Σ g².
func sumSquares(g []float32) float64 {
	var s float64
	for _, v := range g {
		s += float64(v) * float64(v)
	}
	return s
}

// Trainer runs training iterations for one rank.
type Trainer interface {
	// TrainIteration processes the full global microbatch list (every rank
	// receives the same slice) and performs one optimizer step. It returns
	// the mean microbatch loss (identical on every rank).
	TrainIteration(batches []data.Batch) (float64, error)
	// Model returns the rank's local model replica. After TrainIteration
	// the modules this rank owns (Owner) hold post-step weights; which
	// modules those are depends on the strategy. Modules outside that range
	// hold nothing a caller may read: weight-passing trainers only ever see
	// them as views of a belt buffer, for the length of one stage.
	Model() *model.Model
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
			mdl.Modules[i].Forward(c.X, c)
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

// arenaPool recycles per-microbatch scratch arenas: a runner acquires one
// arena per in-flight microbatch and returns it (reset) once that
// microbatch's W passes have finished, so the number of live arenas tracks
// the schedule's peak microbatch concurrency and steady-state steps reuse
// the same buffers.
type arenaPool struct {
	free []*tensor.Arena
}

func (ap *arenaPool) acquire() *tensor.Arena {
	if n := len(ap.free); n > 0 {
		a := ap.free[n-1]
		ap.free = ap.free[:n-1]
		return a
	}
	return tensor.NewArena()
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

// highWater returns the largest slot count among the pool's arenas — the
// scratch-memory high-water mark of the microbatches trained so far.
// Meaningful between iterations, when every in-flight arena has been
// released back.
func (ap *arenaPool) highWater() int {
	hw := 0
	for _, a := range ap.free {
		if s := a.Slots(); s > hw {
			hw = s
		}
	}
	return hw
}

// ArenaMeter is implemented by runners that recycle per-microbatch scratch
// arenas; ArenaHighWater reports the peak arena slot count, the memory
// figure the -metrics snapshot surfaces next to the comm buffer gauges.
type ArenaMeter interface {
	ArenaHighWater() int
}

// zeroedGrads returns grads — indexed by global module index — holding a
// zeroed gradient set for every module in [lo, hi). A trainer keeps the
// slice across iterations: the sets are allocated the first time a module is
// asked for and zeroed in place from then on, so a steady-state step
// allocates no gradient storage.
func zeroedGrads(mdl *model.Model, grads []*nn.ParamSet, lo, hi int) []*nn.ParamSet {
	if grads == nil {
		grads = make([]*nn.ParamSet, len(mdl.Modules))
	}
	for i := lo; i < hi; i++ {
		if grads[i] == nil {
			grads[i] = mdl.Modules[i].Params().NewLike()
		} else {
			grads[i].Zero()
		}
	}
	return grads
}

// flattenGradsRange copies grads of modules [lo, hi) into dst in wire order.
func flattenGradsRange(mdl *model.Model, grads []*nn.ParamSet, lo, hi int, dst []float32) {
	off := 0
	for i := lo; i < hi; i++ {
		n := grads[i].Size()
		grads[i].FlattenInto(dst[off : off+n])
		off += n
	}
	if off != len(dst) {
		panic("pipeline: flattenGradsRange size mismatch")
	}
}

// maybeRoundF16 rounds payload through fp16 when mixed precision is on.
func maybeRoundF16(opts Options, payload []float32) []float32 {
	if !opts.MixedPrecision {
		return payload
	}
	for i, v := range payload {
		payload[i] = tensor.F16ToF32(tensor.F32ToF16(v))
	}
	return payload
}

// maybeRoundBF16 rounds payload through bf16 when mixed precision is on
// (the paper ships activation gradients in bf16).
func maybeRoundBF16(opts Options, payload []float32) []float32 {
	if !opts.MixedPrecision {
		return payload
	}
	for i, v := range payload {
		payload[i] = tensor.BF16ToF32(tensor.F32ToBF16(v))
	}
	return payload
}
