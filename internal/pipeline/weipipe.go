package pipeline

import (
	"fmt"
	"slices"
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

// WeiPipeVariant selects which of the paper's weight-passing schedules a
// WeiPipe trainer runs.
type WeiPipeVariant int

// The four schedules of the paper (§4.2). All share the same dataflow —
// and therefore produce the same gradients — but differ in the local
// interleaving of forward, B and W work, which is what the performance
// simulator distinguishes them by. The orders themselves are written in
// internal/order (Program, under the variant's String name). From two
// rounds up Naive keeps other chunks than the rest, so it defers other
// gradient rounds (order.Deferred) and sums in another order.
const (
	// WeiPipeNaive alternates whole-microbatch forward and backward phases;
	// both weight belts circulate but only one is used at a time (§4.2.1).
	WeiPipeNaive WeiPipeVariant = iota
	// WeiPipeInterleave pairs, once warm, one forward stage of a new
	// microbatch with one backward stage of an old one per turn (§4.2.2).
	WeiPipeInterleave
	// WeiPipeZB1 is Interleave with the backward split and each W pass
	// delayed by one step (§4.2.3.1).
	WeiPipeZB1
	// WeiPipeZB2 runs a microbatch's W passes after its B passes, in forward
	// layer order, so chunk gradients retire as early as possible (§4.2.3.2).
	WeiPipeZB2
)

// String returns the paper's name for the variant.
func (v WeiPipeVariant) String() string {
	switch v {
	case WeiPipeNaive:
		return "weipipe-naive"
	case WeiPipeInterleave:
		return "weipipe-interleave"
	case WeiPipeZB1:
		return "wzb1"
	case WeiPipeZB2:
		return "wzb2"
	}
	return "weipipe-unknown"
}

// WeiPipe is the weight-passing pipeline runtime. The model's modules are
// split into P contiguous chunks, which circulate around the worker ring as
// "belts":
//
//   - the forward belt, whose chunk c reaches worker w exactly when w's
//     forward pass needs modules [chunk c];
//   - the backward belt, which trails a full model-depth behind and feeds
//     each worker's backward passes in reverse chunk order.
//
// A pass does not always take its chunk off a belt. Under the keep rule
// (order.BeltPlan) a pass keeps its copy for the chunk's next use when the
// passes in between use at most one other chunk, and that use runs on it.
// The plan is the same on every rank, so a whole round of a chunk on a belt
// is either shipped or served from kept copies — the turnaround chunk P−1's
// backward rounds always are. And a rank never receives a chunk it holds
// (order.Holds): the owner serves its own uses from the master weights and
// relays from that copy, so a shipped round takes P−1 hops.
//
// A gradient accumulator D_c follows the backward belt (§4.2.1, "update
// pass"), with two changes. The owner never ships its own chunk's gradient:
// its W passes on c accumulate in place into one owner accumulator. And a
// round the backward belt serves from kept copies, unless it is the last,
// circulates no gradient (order.Deferred): each rank holds its partial and
// its W pass on c one round later accumulates into it, so a rank holds at
// most two such partials. D_c visits the other uses in use order
// (order.GradChain): each adds its W pass and passes D_c on — past the
// owner in one hop, o−1 → o+1 — and the last retires the sum to the owner,
// which adds it to its accumulator and steps. Gradient aggregation needs no
// collective, and no gradient message is a self-send. Each worker keeps its
// own microbatches' activations and never ships an activation anywhere: per
// turn the wire carries at most two weight chunks and one gradient chunk —
// at most the paper's 36H² bytes, less the rounds kept copies serve, the
// hops into owners and the deferred rounds — independent of both
// microbatch size G and sequence length S.
//
// Belt use indices are global: use j of a belt chunk is performed by worker
// j mod P during its round ⌊j/P⌋, so use j happens one hop downstream of
// use j−1 and message matching is exact. Chunk c's owner, worker
// (c−1) mod P — the resting position of the backward belt at the iteration
// boundary — keeps the chunk's fp32 master weights and optimizer state and
// re-injects the updated chunk next iteration.
type WeiPipe struct {
	t       Transport
	mdl     *model.Model
	bounds  [][2]int
	variant WeiPipeVariant
	opts    Options

	ownChunk int // the chunk this worker owns: (rank+1) mod P
	masterW  []float32
	opt      *optim.AdamW

	// dpGroup, when non-nil, is the cross-replica communicator of this
	// chunk's owners in a hybrid WeiPipe×DP run: the fully-accumulated D is
	// additionally all-reduced across replicas before the step, and the
	// gradient average divides by globalN instead of the local microbatch
	// count.
	dpGroup Transport
	globalN int

	iter int
	curR int // rounds in the current iteration (N/P)

	// plan is this rank's weight plan (order.BeltPlan of the variant).
	plan beltPlan

	// wGrads is the W pass's per-module gradient sets. They own no storage
	// (nn.ParamSet.NewUnbound): a W pass binds them to the chunk's gradient
	// buffer (gradBuf), so BackwardParams accumulates straight into the
	// accumulator or the payload it ships.
	wGrads []*nn.ParamSet

	// dAcc holds, per chunk, the gradient buffer this rank's W passes on it
	// accumulate into between passes: the owned chunk's until the step, and
	// another chunk's across a deferred round (order.Deferred) or while its
	// next chain use runs on this rank too (p=2).
	dAcc [][]float32

	// stage is the belt buffer the running stage computes out of (F, B: the
	// chunk's modules are views of a weight payload) or into (W: the
	// gradient sets are views of the gradient buffer). One stage runs at a
	// time, so one slot serves; see bindStage.
	stage stageBuf

	// kept holds, per chunk, the belt copy a pass kept for the chunk's next
	// use (order.BeltPlan keeps at most two at a time). A kept copy takes
	// the buffer slot of the use it serves, whose belt copy never comes.
	kept [][]float32

	// Integrity layer state (Options.Integrity; see integrity.go). pad is
	// the checksum trailer length every belt buffer grows by (0 = off);
	// guard* cache the resident state's checksums between legitimate
	// mutations.
	pad        int
	guardW     uint32
	guardM     uint32
	guardV     uint32
	guardValid bool

	// buddy, when non-nil, shadows the ring successor's owned chunk (see
	// buddy.go). ownerIters counts this rank's committed step phases, and
	// rb* hold the one-deep pre-step rollback of the owned chunk that lets
	// elastic repair export a consistent cut.
	buddy         *buddyState
	ownerIters    int
	rbW, rbM, rbV []float32
	rbStep        int
	rbIters       int
	rbValid       bool

	// The step phase's decisions, recorded for the buddy shadow replay: the
	// gradient factor and the step rule's scale and skip verdict are
	// bit-identical on every rank, so the shadow replays the owner's step
	// exactly.
	lastInv, lastScale float32
	lastSkip           bool

	// apool recycles per-microbatch scratch arenas across rounds and
	// iterations; at most R microbatches of this worker are in flight, so the
	// pool stabilises at that many arenas.
	apool arenaPool

	// grouped, when non-nil, activates the topology-aware grouped belt
	// (strategy wzb2g; see grouped.go): weight belts circulate on a
	// per-group sub-transport and chunks cross group boundaries once per
	// iteration via the holder-ring shard exchange. Nil runs the flat belt.
	grouped *groupedState

	// stats is the transport's meter; the runner records its
	// critical-path belt waits into it as the measured
	// exposed-communication time.
	stats *comm.Stats

	// board, when non-nil, receives this rank's schedule position before
	// every compute stage so the straggler watchdog can report where a
	// stalled rank got stuck.
	board     *ProgressBoard
	boardRank int

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer
	stepRule
}

// ArenaHighWater implements ArenaMeter.
func (w *WeiPipe) ArenaHighWater() int { return w.apool.highWater() }

// post publishes the rank's schedule position to the progress board.
func (w *WeiPipe) post(mb int, phase byte) {
	if w.board != nil {
		w.board.Post(w.boardRank, w.iter, mb, phase)
	}
}

// Belt identifiers used in wire tags.
const (
	beltFwd    = 0
	beltBwd    = 1
	beltRetire = 2

	// Tag.B layout: the low beltUseBits hold the belt use index, the high
	// bits hold iter*beltCount+belt.
	beltCount   = 4
	beltUseBits = 36
)

// NewWeiPipe builds a WeiPipe trainer for this rank.
func NewWeiPipe(t Transport, cfg model.Config, opts Options, v WeiPipeVariant) (*WeiPipe, error) {
	mdl := model.BuildShells(cfg)
	p := t.Size()
	if p > len(mdl.Modules) {
		return nil, fmt.Errorf("pipeline: %d ranks exceed %d modules", p, len(mdl.Modules))
	}
	w := &WeiPipe{
		t:       t,
		mdl:     mdl,
		bounds:  mdl.Partition(p),
		variant: v,
		opts:    opts,
		kept:    make([][]float32, p),
		dAcc:    make([][]float32, p),
	}
	w.ownChunk = (t.Rank() + 1) % p
	lo, hi := w.chunkRange(w.ownChunk)
	w.masterW = make([]float32, mdl.ChunkSize(lo, hi))
	mdl.InitChunk(lo, hi, w.masterW)
	w.opt = optim.NewAdamW(len(w.masterW), opts.Adam)
	for _, m := range mdl.Modules {
		w.wGrads = append(w.wGrads, m.Params().NewUnbound())
	}
	w.stats = t.CommStats()
	// Arm link-tier traffic accounting whenever a group size is known, so
	// flat and grouped runs report comparable intra/inter splits.
	if gs := opts.GroupSize; gs > 1 && p%gs == 0 {
		w.stats.SetGroupSize(gs)
	}
	w.tr = opts.Trace.Rank(t.Rank())
	w.stepRule = newStepRule(opts, t.Rank())
	w.initIntegrity()
	w.refreshResidentGuards()
	if opts.buddy && p >= 2 {
		w.initBuddy()
	}
	// The model is shells: the owned chunk's modules are views of masterW for
	// good (the step updates them with no copy), and every other module has
	// weights only while a stage has it bound to a belt buffer.
	mdl.BindChunk(lo, hi, w.masterW)
	return w, nil
}

// Model implements Trainer. Only the owned chunk's modules hold weights
// between stages.
func (w *WeiPipe) Model() *model.Model { return w.mdl }

// chunkRange returns the module range of chunk c.
func (w *WeiPipe) chunkRange(c int) (int, int) { return w.bounds[c][0], w.bounds[c][1] }

// chunkOffset returns where chunk c starts in the flat parameter vector.
func (w *WeiPipe) chunkOffset(c int) int { return w.mdl.ChunkSize(0, w.bounds[c][0]) }

// owner returns the rank owning chunk c.
func (w *WeiPipe) owner(c int) int { return (c - 1 + w.t.Size()) % w.t.Size() }

// enc builds a tag B field from (iteration, belt, belt use index).
func (w *WeiPipe) enc(belt, use int) int {
	return (w.iter*beltCount+belt)<<beltUseBits | use
}

// totalUses returns the per-iteration use count of each belt: one use per
// (round, worker) pair.
func (w *WeiPipe) totalUses() int { return w.curR * w.t.Size() }

// wpState is the per-iteration working state.
type wpState struct {
	batches []data.Batch
	// Per in-flight microbatch of this worker:
	caches     map[int][]*nn.Cache    // one cache per model module
	fwdX       map[int]*tensor.Tensor // boundary activations (forward cursor)
	bwdDy      map[int]*tensor.Tensor // boundary gradients (backward cursor)
	wRemaining map[int]int            // W passes left before caches release
	arenas     map[int]*tensor.Arena  // scratch arena, released with caches
	lossSum    float64
}

// TrainIteration implements Trainer.
func (w *WeiPipe) TrainIteration(batches []data.Batch) (loss float64, err error) {
	// Deferred first → runs last during an unwind, after the arena and
	// stage-buffer cleanups below: an ABFT kernel panic leaves no leaked
	// state and surfaces as a typed integrity error.
	defer w.recoverIntegrity(&err)
	p := w.t.Size()
	n := len(batches)
	// Compiling also rejects a microbatch count the ring does not divide.
	if err := w.plan.compile(w.variant.String(), w.t, n); err != nil {
		return 0, err
	}
	// Chaos-tier resident-state flips land before the guard check, so a
	// scheduled corruption is always in the detector's field of view.
	w.injectStateFlips()
	if gerr := w.checkResidentGuards(); gerr != nil {
		return 0, gerr
	}
	w.curR = n / p
	st := &wpState{
		batches:    batches,
		caches:     make(map[int][]*nn.Cache),
		fwdX:       make(map[int]*tensor.Tensor),
		bwdDy:      make(map[int]*tensor.Tensor),
		wRemaining: make(map[int]int),
		arenas:     make(map[int]*tensor.Arena),
	}
	// Abort safety: when the iteration fails mid-schedule (a peer died, the
	// transport closed, a kernel check fired), the in-flight microbatches'
	// scratch arenas and the buffer the interrupted stage was bound to must
	// go back to their pools — an aborting runner leaks nothing. On the
	// success path every arena has already been released by its final W pass
	// and every stage has given its buffer back.
	defer func() {
		comm.Release(w.unbindStage())
		for c, buf := range w.kept {
			comm.Release(buf)
			w.kept[c] = nil
		}
		for c, buf := range w.dAcc {
			comm.Release(buf)
			w.dAcc[c] = nil
		}
		for mb, a := range st.arenas {
			w.apool.release(a)
			delete(st.arenas, mb)
		}
	}()

	if w.grouped != nil {
		defer w.grouped.releaseCache()
		if err := w.groupedExchange(); err != nil {
			return 0, err
		}
	} else if !w.holds(0, w.ownChunk) {
		// Inject the owned chunk into both belts; the first user of every belt
		// chunk is worker 0 at use index 0, unless worker 0 is the owner and
		// serves itself. One sealed copy of the master weights serves both: it
		// is shared, and each belt's send carries one reference away. A belt
		// whose use 0 runs on a kept copy gets none: round 0 of the forward
		// belt always travels, the backward belt's only when the plan ships it.
		tagFwd := Tag{Kind: comm.KindWeight, A: w.ownChunk, B: w.enc(beltFwd, 0)}
		payload := w.ownedPayload(tagFwd)
		if !w.plan.ships(beltBwd, w.ownChunk, 0) {
			if err := w.t.SendOwned(0, tagFwd, payload); err != nil {
				return 0, err
			}
		} else {
			comm.Retain(payload)
			if err := w.t.SendOwned(0, tagFwd, payload); err != nil {
				comm.Release(payload) // the reference the second send would have taken
				return 0, err
			}
			if err := w.t.SendOwned(0, Tag{Kind: comm.KindWeight, A: w.ownChunk, B: w.enc(beltBwd, 0)}, payload); err != nil {
				return 0, err
			}
		}
	}

	if serr := w.runSchedule(st); serr != nil {
		return 0, serr
	}

	// Sum the owned chunk's gradient — the owner's own W passes and the
	// chain's retire — and step. The opt span opens with the gradient in
	// hand: the wait for it is the receive's own stall span, and a span
	// counts towards one phase only.
	d := w.gradBuf(w.ownChunk)
	retire := Tag{Kind: comm.KindGrad, A: w.ownChunk, B: w.enc(beltRetire, 0)}
	var r []float32 // the retire; none at p=1, where every use is the owner's
	if chain := w.plan.chains[w.ownChunk]; len(chain) > 0 {
		if r, err = w.beltRecv(chain[len(chain)-1]%p, retire); err != nil {
			comm.Release(r)
			comm.Release(d)
			return 0, err
		}
	}
	optSpan := w.tr.Begin()
	if r != nil {
		if w.opts.BitFlip != nil {
			w.opts.BitFlip.Flip(w.t.Rank(), w.iter, FlipBeltGrad, w.beltBody(r))
		}
		if err := w.foldD(comm.SiteRetire, w.ownChunk, d, r); err != nil {
			comm.Release(d)
			return 0, err
		}
	}
	// The owner steps on the values the wire would have delivered, and its
	// buddy replays the step on exactly these bits.
	db := w.beltBody(d)
	comm.RoundToWire(w.t.WireCodec(retire), db)
	if err := w.buddySend(d); err != nil {
		comm.Release(d)
		return 0, err
	}
	if w.dpGroup != nil {
		if err := comm.RingAllReduceSum(w.dpGroup, db, w.iter+1); err != nil {
			comm.Release(d)
			return 0, err
		}
	}
	denom := n
	if w.globalN > 0 {
		denom = w.globalN
	}
	inv := gradFactor(denom)
	tensor.ScaleF32(db, db, inv)
	// One scalar all-reduce gives the step rule its Σg²: NaN/Inf propagates
	// through the sum, and the agreed float64 is bit-identical everywhere,
	// so every rank (and every buddy shadow) reaches the identical verdict.
	var sumSq float64
	if w.needSumSq() {
		sumSq, err = comm.AllReduceScalarSum(w.t, sumSquares(db), (1<<30)+w.iter)
		if err != nil {
			comm.Release(d)
			return 0, err
		}
	}
	scale, skip := w.decide(sumSq, db)
	w.lastInv, w.lastScale, w.lastSkip = inv, scale, skip
	w.stashOwnedRollback()
	if !skip {
		w.opt.Step(w.masterW, db)
	}
	w.ownerIters++
	comm.Release(d)

	if w.buddy != nil {
		if err := w.buddyStep(); err != nil {
			return 0, err
		}
	}
	// The step (or the skip decision) was the last legitimate mutation of
	// the resident state this iteration; re-arm the guards over it.
	w.refreshResidentGuards()
	w.tr.End(optSpan, trace.CodeOpt, int64(w.iter), 0)

	w.iter++
	loss, err = comm.AllReduceScalarSum(w.t, st.lossSum, w.iter)
	if err != nil {
		return 0, err
	}
	return loss / float64(n), nil
}

// ---- the program order and its interpreter --------------------------------

// beltPlan is a rank's compiled weight plan: its passes (order.BeltPlan),
// which rounds of which chunks travel on each belt (order.Shipped) and each
// chunk's gradient chain (order.GradChain). The belt ids beltFwd and beltBwd
// index the table.
type beltPlan struct {
	uses    []order.Use
	n       int // the microbatch count uses was compiled for
	shipped [2][][]bool
	chains  [][]int
}

// compile makes pl the plan of t's rank under strategy for n microbatches.
// The plan changes only with n, so a training run compiles it once.
func (pl *beltPlan) compile(strategy string, t Transport, n int) error {
	if pl.uses != nil && pl.n == n {
		return nil
	}
	uses, err := order.BeltPlan(strategy, t.Rank(), t.Size(), n)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	p := t.Size()
	pl.uses, pl.n, pl.shipped = uses, n, order.Shipped(uses, p)
	pl.chains = make([][]int, p)
	for c := range pl.chains {
		pl.chains[c] = order.GradChain(c, p, n, pl.shipped)
	}
	return nil
}

// chainNeighbours reports whether use `use` is in chunk c's gradient chain
// and returns the uses before and after it there, or -1 at the chain's head
// and tail.
func (pl *beltPlan) chainNeighbours(c, use int) (in bool, prev, next int) {
	chain := pl.chains[c]
	i := slices.Index(chain, use)
	prev, next = -1, -1
	if i > 0 {
		prev = chain[i-1]
	}
	if i >= 0 && i+1 < len(chain) {
		next = chain[i+1]
	}
	return i >= 0, prev, next
}

// ships reports whether round k of chunk c travels on belt.
func (pl *beltPlan) ships(belt, c, k int) bool { return pl.shipped[belt][c][k] }

// runSchedule interprets the plan: every pass is one compute stage, and the
// stage fetches what it needs off the belts or from a kept copy.
func (w *WeiPipe) runSchedule(st *wpState) error {
	for _, u := range w.plan.uses {
		var err error
		switch u.Phase {
		case 'F':
			err = w.fStage(st, u)
		case 'B':
			err = w.bStage(st, u)
		default:
			err = w.wStage(st, u.MB, u.Chunk)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- belt plumbing -------------------------------------------------------

// beltRecv blocks for the next belt payload the schedule consumes, recording
// the compute thread's wait as belt stall — the measured exposed-
// communication time.
func (w *WeiPipe) beltRecv(src int, tag Tag) ([]float32, error) {
	return w.beltRecvOn(w.t, src, tag)
}

// beltRecvOn is beltRecv against an explicit transport (the ring, or a
// grouped belt's sub-ring).
func (w *WeiPipe) beltRecvOn(t Transport, src int, tag Tag) ([]float32, error) {
	span := w.tr.Begin()
	start := time.Now()
	payload, err := t.Recv(src, tag)
	wait := time.Since(start)
	w.tr.End(span, trace.CodeStall, int64(tag.Kind), int64(src))
	w.stats.RecordBeltStall(wait)
	return payload, err
}

// ownedPayload builds the owned chunk's belt payload for an iteration: one
// copy of the master weights, rounded to the values the wire under tag
// delivers (comm.RoundToWire) and sealed. Every rank therefore computes on
// the same bits, the owner serving its own uses included. The caller owns
// it.
func (w *WeiPipe) ownedPayload(tag Tag) []float32 {
	payload := comm.GetBuf(len(w.masterW) + w.pad)
	copy(payload, w.masterW)
	comm.RoundToWire(w.t.WireCodec(tag), w.beltBody(payload))
	w.sealBelt(tag, payload)
	return payload
}

// holds reports whether rank r holds chunk c's weights for the iteration
// (order.Holds): the owner on the flat belt, the group's holder on the
// grouped one. A holder serves its own uses of c (heldPayload), and nobody
// relays c to it.
func (w *WeiPipe) holds(r, c int) bool {
	m := 1
	if w.grouped != nil {
		m = w.grouped.m
	}
	return order.Holds(r, c, w.t.Size(), m)
}

// heldPayload is a holder's copy of chunk c for its pass on use `use` of
// belt-copy `belt`, in place of the belt's: on the flat belt a fresh copy of
// the master weights (ownedPayload), on the grouped belt the cached payload,
// shared — or, for the chaos injector, which writes what it is handed, a
// private copy of it. The caller owns it.
func (w *WeiPipe) heldPayload(belt, c, use int) []float32 {
	if w.grouped == nil {
		return w.ownedPayload(Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use)})
	}
	payload := w.grouped.cache[c]
	if w.opts.BitFlip != nil {
		return append(comm.GetBuf(len(payload))[:0], payload...)
	}
	comm.Retain(payload)
	return payload
}

// stageBuf is a belt buffer bound to the running stage: modules [lo, hi) —
// or, for a W pass, their gradient sets — are views of its body.
type stageBuf struct {
	buf    []float32
	lo, hi int
	grads  bool
}

// bindStage makes chunk c's modules (or, with grads, their gradient sets)
// views of buf's body for the coming stage. The stage ends with unbindStage;
// so does an aborted iteration, which is why the binding is recorded here
// and not on the stage's stack.
func (w *WeiPipe) bindStage(c int, buf []float32, grads bool) {
	lo, hi := w.chunkRange(c)
	body := w.beltBody(buf)
	if grads {
		off := 0
		for i := lo; i < hi; i++ {
			n := w.wGrads[i].Size()
			w.wGrads[i].Bind(body[off : off+n])
			off += n
		}
	} else {
		w.mdl.BindChunk(lo, hi, body)
	}
	w.stage = stageBuf{buf: buf, lo: lo, hi: hi, grads: grads}
}

// unbindStage ends the running stage's binding and hands back the buffer it
// held (nil when no stage is bound), which the caller releases or ships. The
// owned chunk's modules go back to being views of the master weights; every
// other module, and every gradient set, holds nothing until its next stage.
func (w *WeiPipe) unbindStage() []float32 {
	b := w.stage
	w.stage = stageBuf{}
	switch {
	case b.buf == nil:
	case b.grads:
		for i := b.lo; i < b.hi; i++ {
			w.wGrads[i].Unbind()
		}
	default:
		w.mdl.UnbindChunk(b.lo, b.hi)
		if lo, hi := w.chunkRange(w.ownChunk); b.lo == lo {
			w.mdl.BindChunk(lo, hi, w.masterW)
		}
	}
	return b.buf
}

// bindWeights is the one way a copy of chunk c's weights enters pass u —
// use u.MB of belt-copy `belt` — on the flat belt and the grouped one: fetch
// (when the plan gathers: off the belt, or the holder's own copy; else the
// copy the chunk's previous pass kept), chaos flip, verify, relay, bind, in
// that order. Verification comes first, so a corrupt chunk neither enters
// this rank's compute nor travels on, and a kept copy is verified again, so a
// flip while it waited cannot enter the pass. The relay — use+1, when the
// plan ships it and the next rank does not hold the chunk — comes before the
// bind, so the next hop's wire time runs under this stage's compute instead
// of after it: the payload is shared (comm.Retain), one reference leaves
// with Transport.Forward, and the stage computes out of the other until
// unbindStage. A shared payload is read-only to everyone, which is why the
// flip and the seal's rounding happen on the way in; the TCP writer only
// reads it, and the in-process fabric delivers a private copy. The payload
// is relayed as it arrived, so Forward lets the TCP writer seal it from the
// checksum this rank's reader verified — unless a chaos flip is armed: the
// flip writes the payload, and the relay then takes a full seal.
func (w *WeiPipe) bindWeights(belt int, u order.Use) error {
	c, use := u.Chunk, u.MB
	var payload []float32
	switch {
	case !u.Gather:
		payload, w.kept[c] = w.kept[c], nil
	case w.holds(w.t.Rank(), c):
		payload = w.heldPayload(belt, c, use)
	default:
		var err error
		if payload, err = w.recvBelt(belt, c, use); err != nil {
			comm.Release(payload)
			return err
		}
	}
	if u.Gather && w.opts.BitFlip != nil {
		w.opts.BitFlip.Flip(w.t.Rank(), w.iter, FlipBeltWeight, w.beltBody(payload))
	}
	if verr := w.verifyBelt(comm.SiteBelt, comm.KindWeight, c, payload); verr != nil {
		comm.Release(payload)
		return verr
	}
	if t, dst := w.relayTarget(belt, c, use); dst >= 0 {
		relay := t.Forward
		if w.opts.BitFlip != nil {
			relay = t.SendOwned
		}
		comm.Retain(payload)
		span := w.tr.Begin()
		err := relay(dst, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use+1)}, payload)
		w.tr.End(span, trace.CodeRelay, int64(belt), int64(use+1))
		if err != nil {
			comm.Release(payload)
			return err
		}
	}
	w.bindStage(c, payload, false)
	if w.grouped != nil {
		return w.reinjectGrouped(belt, c, use)
	}
	return nil
}

// recvBelt receives belt-copy `belt` of chunk c for use index `use`; the
// caller owns the payload.
func (w *WeiPipe) recvBelt(belt, c, use int) ([]float32, error) {
	if w.grouped != nil {
		return w.recvBeltGrouped(belt, c, use)
	}
	p := w.t.Size()
	src := (w.t.Rank() - 1 + p) % p
	if use == 0 {
		src = w.owner(c)
	}
	return w.beltRecv(src, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use)})
}

// relayTarget returns where the pass on use `use` of chunk c's belt-copy
// `belt` relays use+1 — the ring successor, or on the grouped belt the next
// group member — or dst < 0 when there is no next use, the plan serves it
// from kept copies or the next rank holds the chunk.
func (w *WeiPipe) relayTarget(belt, c, use int) (t Transport, dst int) {
	p := w.t.Size()
	next := (w.t.Rank() + 1) % p
	if w.holds(next, c) {
		return nil, -1
	}
	if g := w.grouped; g != nil {
		if i := w.t.Rank() - g.first; i < g.m-1 && w.plan.ships(belt, c, use/p) {
			return g.grp, i + 1
		}
		return nil, -1
	}
	if use+1 < w.totalUses() && w.plan.ships(belt, c, (use+1)/p) {
		return w.t, next
	}
	return nil, -1
}

// dropWeights ends pass u's binding and keeps its copy for the chunk's next
// use, or releases it.
func (w *WeiPipe) dropWeights(u order.Use) {
	if buf := w.unbindStage(); u.Keep {
		w.kept[u.Chunk] = buf
	} else {
		comm.Release(buf)
	}
}

// gradBuf hands out the buffer chunk c's next W pass on this rank
// accumulates into: the one held since its previous pass (dAcc), or a
// zeroed one. The caller owns it.
func (w *WeiPipe) gradBuf(c int) []float32 {
	buf := w.dAcc[c]
	w.dAcc[c] = nil
	if buf == nil {
		lo, hi := w.chunkRange(c)
		size := w.mdl.ChunkSize(lo, hi)
		buf = comm.GetBuf(size + w.pad)
		clear(buf[:size])
	}
	return buf
}

// foldD verifies a received accumulator d of chunk c and adds it into acc,
// releasing d. It is verified before the fold: summing over a corrupt
// partial would launder the flip into a freshly sealed chunk.
func (w *WeiPipe) foldD(site comm.IntegritySite, c int, acc, d []float32) error {
	defer comm.Release(d)
	if verr := w.verifyBelt(site, comm.KindGrad, c, d); verr != nil {
		return verr
	}
	body, db := w.beltBody(acc), w.beltBody(d)
	if len(db) != len(body) {
		return fmt.Errorf("pipeline: D chunk size mismatch %d != %d", len(db), len(body))
	}
	tensor.AddIntoF32(body, db)
	return nil
}

// passD moves chunk c's gradient on after this rank's W pass on use `use`
// accumulated into buf, along the chain (order.GradChain). A use off the
// chain keeps buf: the owner's, whose passes accumulate in place until the
// step, and one in a deferred round (order.Deferred), whose partial waits
// for this rank's W pass on c one round later to accumulate into it. A
// chain use first folds in the accumulator its predecessor sent, unless
// that use ran here and buf already holds it; then it keeps buf for its
// next use when that runs here too, or sends it on — to the next use's
// rank, or, from the chain's last use, to the owner as the retire. passD
// owns buf: it is held, donated or released, and the caller must not touch
// it after the call.
func (w *WeiPipe) passD(c, use int, buf []float32) error {
	in, prev, next := w.plan.chainNeighbours(c, use)
	if !in {
		w.dAcc[c] = buf
		return nil
	}
	p, me := w.t.Size(), w.t.Rank()
	if prev >= 0 && prev%p != me {
		d, err := w.beltRecv(prev%p, Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltBwd, use)})
		if err != nil {
			comm.Release(d)
			comm.Release(buf)
			return err
		}
		if err := w.foldD(comm.SiteBelt, c, buf, d); err != nil {
			comm.Release(buf)
			return err
		}
	}
	if next >= 0 && next%p == me {
		w.dAcc[c] = buf
		return nil
	}
	dst, tag := w.owner(c), Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltRetire, 0)}
	if next >= 0 {
		dst, tag = next%p, Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltBwd, next)}
	}
	w.sealBelt(tag, buf)
	return w.t.SendOwned(dst, tag, buf)
}

// ---- compute stages ------------------------------------------------------

// fStage runs forward pass u: chunk u.Chunk for this worker's microbatch
// u.MB, which is also the belt use index.
func (w *WeiPipe) fStage(st *wpState, u order.Use) error {
	mb, c := u.MB, u.Chunk
	w.post(mb, 'F')
	if err := w.bindWeights(beltFwd, u); err != nil {
		return err
	}
	b := st.batches[mb]
	caches, ok := st.caches[mb]
	if !ok {
		arena := w.apool.acquire()
		st.arenas[mb] = arena
		caches = newCaches(0, len(w.mdl.Modules), b.G(), b.S(), arena)
		st.caches[mb] = caches
		st.wRemaining[mb] = w.t.Size()
	}
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	out, loss := forwardRange(w.mdl, lo, hi, st.fwdX[mb], b, caches[lo:hi], w.opts.Recompute)
	w.tr.End(span, trace.CodeF, int64(mb), int64(c))
	w.dropWeights(u)
	st.lossSum += loss
	if out != nil {
		st.fwdX[mb] = out
	} else {
		delete(st.fwdX, mb)
	}
	return nil
}

// bStage runs B pass u: chunk u.Chunk for this worker's microbatch u.MB.
func (w *WeiPipe) bStage(st *wpState, u order.Use) error {
	mb, c := u.MB, u.Chunk
	w.post(mb, 'B')
	if err := w.bindWeights(beltBwd, u); err != nil {
		return err
	}
	caches := st.caches[mb]
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	dx := backwardRangeB(w.mdl, lo, hi, st.bwdDy[mb], caches[lo:hi], w.opts.Recompute)
	w.tr.End(span, trace.CodeB, int64(mb), int64(c))
	w.dropWeights(u)
	if lo > 0 && dx != nil {
		st.bwdDy[mb] = dx
	} else {
		delete(st.bwdDy, mb)
	}
	return nil
}

// wStage runs the W pass of chunk c for this worker's microbatch mb straight
// into the chunk's gradient buffer (gradBuf) and moves the gradient on along
// its chain (passD). When the microbatch's last W pass completes, its
// activations are released.
func (w *WeiPipe) wStage(st *wpState, mb, c int) error {
	w.post(mb, 'W')
	caches := st.caches[mb]
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	buf := w.gradBuf(c)
	w.bindStage(c, buf, true)
	backwardRangeW(w.mdl, lo, hi, caches[lo:hi], w.wGrads)
	w.unbindStage()
	w.tr.End(span, trace.CodeW, int64(mb), int64(c))
	// passD owns buf from here (held, donated or released inside).
	if err := w.passD(c, mb, buf); err != nil {
		return err
	}
	st.wRemaining[mb]--
	if st.wRemaining[mb] == 0 {
		delete(st.caches, mb)
		delete(st.wRemaining, mb)
		// The microbatch's boundary tensors (fwdX/bwdDy) and stashes are all
		// dead now; its scratch arena can be recycled for the next round.
		w.apool.release(st.arenas[mb])
		delete(st.arenas, mb)
	}
	return nil
}

var _ Trainer = (*WeiPipe)(nil)
