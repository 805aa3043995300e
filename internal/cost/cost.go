// Package cost is the analytic model of the paper's workloads: FLOP counts,
// message sizes and per-worker memory footprints for Llama-style training
// under each parallel strategy. The discrete-event simulator turns the FLOP
// counts into op durations; the benchmark harness turns the memory model
// into the OOM column of the paper's tables.
//
// All constants that calibrate the memory model are named and documented
// here; the calibration target is the measured memory column of the paper's
// Table 2 (see EXPERIMENTS.md for the paper-vs-model comparison).
package cost

import (
	"fmt"

	"weipipe/internal/cluster"
	"weipipe/internal/order"
)

// Workload describes one training configuration (the paper's H/S/G/L/N
// parameters plus vocab and head count).
type Workload struct {
	H     int // hidden size
	S     int // sequence length
	G     int // microbatch size
	L     int // transformer layers
	Heads int // attention heads (fixed at 32 in the paper)
	Vocab int // vocabulary size (Llama-2's 32000 unless overridden)
	N     int // microbatches per iteration
	P     int // workers
	// Recompute marks activation checkpointing (applied to every strategy
	// except the zero-bubble ones, following the paper).
	Recompute bool
}

// WithDefaults fills Heads/Vocab and validates.
func (w Workload) WithDefaults() Workload {
	if w.Heads == 0 {
		w.Heads = 32
	}
	if w.Vocab == 0 {
		w.Vocab = 32000
	}
	if w.H <= 0 || w.S <= 0 || w.G <= 0 || w.L <= 0 || w.N <= 0 || w.P <= 0 {
		panic(fmt.Sprintf("cost: invalid workload %+v", w))
	}
	return w
}

// Tokens returns tokens processed per iteration (G·S·N).
func (w Workload) Tokens() float64 {
	return float64(w.G) * float64(w.S) * float64(w.N)
}

// ---- parameter counts -----------------------------------------------------

// LayerParams returns the per-layer parameter count: 12H² from the
// attention (4H²) and SwiGLU FFN (8H²) projections plus the two norm gains.
func (w Workload) LayerParams() float64 {
	h := float64(w.H)
	return 12*h*h + 2*h
}

// EmbedParams returns the token-embedding parameter count (V·H).
func (w Workload) EmbedParams() float64 { return float64(w.Vocab) * float64(w.H) }

// HeadParams returns the output head parameter count (V·H plus final norm).
func (w Workload) HeadParams() float64 { return float64(w.Vocab)*float64(w.H) + float64(w.H) }

// TotalParams returns the full model parameter count.
func (w Workload) TotalParams() float64 {
	return float64(w.L)*w.LayerParams() + w.EmbedParams() + w.HeadParams()
}

// ---- FLOPs and op durations ------------------------------------------------

// LayerFwdFLOPs returns the forward FLOPs of one transformer layer for one
// microbatch: 24·G·S·H² for the linear projections (2 FLOPs per MAC over
// 12H² weights and G·S tokens) plus 4·G·S²·H for QKᵀ and attention·V.
func (w Workload) LayerFwdFLOPs() float64 {
	g, s, h := float64(w.G), float64(w.S), float64(w.H)
	return 24*g*s*h*h + 4*g*s*s*h
}

// HeadFwdFLOPs returns the LM-head forward FLOPs (2·G·S·H·V).
func (w Workload) HeadFwdFLOPs() float64 {
	return 2 * float64(w.G) * float64(w.S) * float64(w.H) * float64(w.Vocab)
}

// OpTimes holds the simulator's per-(layer, microbatch) compute durations in
// seconds: F forward, B the activation-gradient pass, W the weight-gradient
// pass. The paper's "backward ≈ 2× forward" is B+W; recomputation adds one
// extra F to B.
type OpTimes struct {
	F float64
	B float64
	W float64
	// HeadF/HeadB/HeadW add the output-projection cost on top of the
	// layer cost for the stage containing the LM head.
	HeadF float64
	HeadB float64
	HeadW float64
}

// Times derives op durations from the workload and GPU.
func (w Workload) Times(gpu cluster.GPUSpec) OpTimes {
	eff := gpu.PeakFLOPS * gpu.MFU
	f := w.LayerFwdFLOPs() / eff
	t := OpTimes{F: f, B: f, W: f}
	if w.Recompute {
		t.B += f // re-run forward before the B pass
	}
	hf := w.HeadFwdFLOPs() / eff
	t.HeadF = hf
	t.HeadB = hf
	t.HeadW = hf
	return t
}

// ---- message sizes ----------------------------------------------------------

// Bytes-per-element of the paper's wire formats.
const (
	fp16Bytes = 2
	fp32Bytes = 4
)

// ActBoundaryBytes returns the bytes of one boundary activation tensor
// (G·S·H fp16 values) — what activation-passing pipelines ship per
// microbatch per stage boundary. Activation gradients (bf16) are the same
// size.
func (w Workload) ActBoundaryBytes() float64 {
	return float64(w.G) * float64(w.S) * float64(w.H) * fp16Bytes
}

// LayerWeightBytes returns the fp16 bytes of one layer's weights (≈ 24H²,
// the paper's 12H² parameters at 2 bytes).
func (w Workload) LayerWeightBytes() float64 { return w.LayerParams() * fp16Bytes }

// ChunkWeightBytes returns the fp16 bytes of one WeiPipe chunk (L/P layers,
// with the embedding attached to chunk 0 and the head to chunk P−1; for
// sizing we use the largest chunk). Gradient chunks are the same size.
func (w Workload) ChunkWeightBytes() float64 {
	perChunk := float64(w.L) / float64(w.P) * w.LayerWeightBytes()
	edge := w.EmbedParams() * fp16Bytes
	if hp := w.HeadParams() * fp16Bytes; hp > edge {
		edge = hp
	}
	return perChunk + edge
}

// WeightRatio returns the paper's key quantity G·S/(12·H): when it exceeds
// 1, a boundary activation outweighs a layer's weights and weight-passing
// wins on communication volume.
func (w Workload) WeightRatio() float64 {
	return float64(w.G) * float64(w.S) / (12 * float64(w.H))
}

// ---- memory model ------------------------------------------------------------

// Calibration constants for the per-worker memory model, fit against the
// measured memory column of the paper's Table 2 (A800, 16 GPUs, L=32).
const (
	// bytesPerOwnedParam: fp16 weight + fp16 grad + fp32 master + two fp32
	// Adam moments.
	bytesPerOwnedParam = 2 + 2 + 4 + 4 + 4

	// actFullUnits: full per-layer activation footprint retained for an
	// un-checkpointed backward, in units of G·S·H fp16 elements. With Flash
	// Attention the S² matrices never materialise; what remains is the
	// residual stream, q/k/v/ctx, and the three F-wide FFN intermediates.
	actFullUnits = 17

	// actCkptUnits: per-layer footprint with checkpointing — just the
	// boundary input.
	actCkptUnits = 1

	// megatronCkptUnits: Megatron-LM's 1F1B/GPipe stages retain both the
	// input and output boundary tensors of the stage per in-flight
	// microbatch (observed in the paper's higher 1F1B memory).
	megatronCkptUnits = 2

	// zbStashFrac / zb2StashFrac: fraction of the full activation footprint
	// additionally retained between a B pass and its deferred W pass (paper
	// §4.2.4's α·M_A + M_B term, folded into one fitted constant; ZB2
	// defers every W pass so it retains more).
	zbStashFrac  = 0.15
	zb2StashFrac = 0.25

	// zbUsableFrac: effective memory budget fraction for the zero-bubble
	// strategies. The paper observes that with Flash Attention their peak
	// occurs on the last rank before its first W pass and is roughly twice
	// the steady footprint of the first rank; we fold that transient into a
	// reduced budget rather than into the reported steady number, which is
	// what the paper's Table 2 measures.
	zbUsableFrac = 0.55

	// weipipeInflight: WeiPipe-Interleave keeps one draining and one
	// filling microbatch whose chunk lifetimes sum to ≈ one model's worth;
	// the overshoot covers the half-turn both are live.
	weipipeInflight = 1.15

	// beltBufferCopies: receive + send double buffers for the two weight
	// belts and the gradient belt (the "larger buffers" the paper notes
	// put WeiPipe slightly above FSDP). A pass that keeps its copy for the
	// chunk's next use (order.BeltPlan — the turnaround chunk P−1 from F to
	// B, and from two rounds up chunk pairs whose F and B interleave) holds
	// it in the slot of the use it serves, whose belt copy never comes, and
	// the keep rule keeps at most two at a time. Where a rank keeps more, in
	// place of an early row it no longer takes, the copy is held no longer
	// than that row would have waited in its mailbox, so it takes the row's
	// slot. An owner serves its own chunk (order.Holds) from its master
	// weights, which are the belt payload, and takes no slot. So the count
	// stands. The gradient partials a rank holds across deferred rounds are
	// charged on top (GradSlots).
	beltBufferCopies = 6
)

// GradSlots returns the gradient buffers of chunks it does not own that the
// worst rank of a weight-passing strategy holds at once between W passes
// (order.GradSlots): a deferred round's partial, which waits for the rank's
// next W pass on its chunk, and at P=2 the other chunk's accumulator between
// its chain uses. The plan holds at most two. The memory model charges them
// as fp16 chunks, the unit of beltBufferCopies.
func (w Workload) GradSlots(strategy string) int {
	slots, err := order.GradSlots(strategy, w.P, w.N)
	if err != nil {
		panic("cost: " + err.Error())
	}
	return slots
}

// unitBytes returns G·S·H fp16 bytes — the memory model's activation unit.
func (w Workload) unitBytes() float64 {
	return float64(w.G) * float64(w.S) * float64(w.H) * fp16Bytes
}

// MemoryBytes estimates the peak per-worker memory of the given strategy
// (identified by the same names the pipeline package uses). It returns the
// worst rank's footprint.
func (w Workload) MemoryBytes(strategy string) float64 {
	u := w.unitBytes()
	lp := float64(w.L) / float64(w.P)
	inflight := float64(w.P)
	if n := float64(w.N); n < inflight {
		inflight = n
	}
	edgeParams := w.EmbedParams()
	if hp := w.HeadParams(); hp > edgeParams {
		edgeParams = hp
	}
	ownStage := (lp*w.LayerParams() + edgeParams) * bytesPerOwnedParam
	workspace := actFullUnits * u // one layer recomputed during backward

	// Per-layer retained activations for the strategies that honour the
	// recompute flag: boundary-only when checkpointing, full otherwise.
	ckpt := float64(actCkptUnits)
	megatronCkpt := float64(megatronCkptUnits)
	if !w.Recompute {
		ckpt = actFullUnits
		megatronCkpt = actFullUnits
	}

	// A weight-passing rank's chunk-sized state: the owned chunk's, copies
	// fp16 belt buffers and the gradient slots it holds (GradSlots).
	chunk := (lp*w.LayerParams() + edgeParams) * fp16Bytes
	belts := func(copies int) float64 {
		return ownStage + float64(copies+w.GradSlots(strategy))*chunk
	}

	switch strategy {
	case "gpipe":
		return ownStage + float64(w.N)*lp*megatronCkpt*u + workspace
	case "1f1b":
		return ownStage + inflight*lp*megatronCkpt*u + workspace
	case "zb1":
		acts := inflight * lp * actFullUnits * u
		return ownStage + acts*(1+zbStashFrac)
	case "zb2":
		acts := inflight * lp * actFullUnits * u
		return ownStage + 2*acts*(1+zb2StashFrac)
	case "fsdp":
		sharded := w.TotalParams() * bytesPerOwnedParam / float64(w.P)
		// at most two gathered modules: the running pass's and one kept
		// for its next use (order.FSDP)
		gathered := 2 * maxf(w.LayerParams(), edgeParams) * fp16Bytes
		acts := float64(w.L) * ckpt * u
		return sharded + gathered + acts + workspace
	case "dp":
		return w.TotalParams()*bytesPerOwnedParam + float64(w.L)*ckpt*u + workspace
	case "weipipe-naive":
		return belts(beltBufferCopies) + float64(w.L)*ckpt*u + workspace
	case "weipipe-interleave":
		return belts(beltBufferCopies) + weipipeInflight*float64(w.L)*ckpt*u + 2*workspace
	case "wzb1":
		// paper §4.2.4: WZB1 peaks near 1.5·G·M_A
		return belts(beltBufferCopies) + 1.5*float64(w.L)*ckpt*u +
			2*workspace + lp*actFullUnits*u*zbStashFrac
	case "wzb2":
		// one chunk operation per two chunks on the wire: double belts and
		// a model's worth of pending W stashes.
		return belts(2*beltBufferCopies) + 2*float64(w.L)*ckpt*u +
			2*workspace + float64(w.L)*actFullUnits*u*zbStashFrac
	case "wzb2g":
		// wzb2's footprint plus the holder shard cache: each rank caches the
		// P/m chunks it re-injects into its group's belt each round, held as
		// full-precision buffers (2× the fp16 wire chunk). Uses the runtime's
		// topology-friendly default group size (pipeline.normalizeGroupSize).
		m := defaultGroupSize(w.P)
		cache := float64(w.P/m) * 2 * chunk
		return belts(2*beltBufferCopies) + cache + 2*float64(w.L)*ckpt*u +
			2*workspace + float64(w.L)*actFullUnits*u*zbStashFrac
	default:
		panic("cost: unknown strategy " + strategy)
	}
}

// defaultGroupSize mirrors pipeline.normalizeGroupSize's default: groups of
// 4 when the ring allows it, pairs on smaller even rings, flat otherwise.
func defaultGroupSize(p int) int {
	switch {
	case p%4 == 0 && p >= 8:
		return 4
	case p%2 == 0:
		return 2
	default:
		return 1
	}
}

// FitsMemory reports whether the strategy fits the GPU ("OOM" otherwise).
// The zero-bubble strategies are checked against a reduced budget
// (zbUsableFrac) to account for their last-rank transient spike.
func (w Workload) FitsMemory(strategy string, gpu cluster.GPUSpec) bool {
	budget := gpu.MemBytes
	if strategy == "zb1" || strategy == "zb2" {
		budget *= zbUsableFrac
	}
	return w.MemoryBytes(strategy) <= budget
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
