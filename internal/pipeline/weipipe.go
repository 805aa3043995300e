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

// WeiPipeVariant selects which of the paper's weight-passing schedules a
// WeiPipe trainer runs.
type WeiPipeVariant int

// The four schedules of the paper (§4.2). All share the same dataflow —
// and therefore produce identical gradients — but differ in the local
// interleaving of forward, B and W work, which is what the performance
// simulator distinguishes them by. The orders themselves are written in
// internal/order (Program, under the variant's String name).
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
//     each worker's backward passes in reverse chunk order. It carries
//     chunks P−2 … 0 only: a worker's B pass on the turnaround chunk P−1
//     runs on the forward-belt copy its F pass held
//     (order.BackwardFromForward).
//
// A gradient accumulator D_c rides the backward belt: each worker adds its
// local weight-gradient contribution before passing it on, so by the time
// the belt completes its final circle D_c holds the sum over all N
// microbatches — gradient aggregation without any collective (§4.2.1,
// "update pass"). Each worker keeps its own microbatches' activations and
// never ships an activation anywhere: per turn the wire carries at most two
// weight chunks and one gradient chunk — the paper's 36H² bytes, less the
// turnaround chunk's backward copy — independent of both microbatch size G
// and sequence length S.
//
// Belt use indices are global: use j of a belt chunk is performed by worker
// j mod P during its round ⌊j/P⌋, so use j happens one hop downstream of
// use j−1 and message matching is exact. Chunk c's fully-accumulated
// gradient retires at worker P−1 and is delivered to chunk c's owner,
// worker (c−1) mod P — the resting position of the backward belt at the
// iteration boundary — which keeps the chunk's fp32 master weights and
// optimizer state and re-injects the updated chunk next iteration.
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

	// prog is this rank's program order (order.Program of the variant).
	prog program

	// wGrads is the W pass's per-module gradient sets. They own no storage
	// (nn.ParamSet.NewUnbound): a W pass binds them to the zeroed belt
	// buffer it is about to ship, so BackwardParams accumulates straight
	// into the payload.
	wGrads []*nn.ParamSet

	// stage is the belt buffer the running stage computes out of (F, B: the
	// chunk's modules are views of a weight payload) or into (W: the
	// gradient sets are views of the outgoing payload). One stage runs at a
	// time, so one slot serves; see bindStage.
	stage stageBuf

	// held is the forward-belt copy of the turnaround chunk p−1
	// (order.BackwardFromForward) between a microbatch's F pass on it and
	// its B pass, which runs on this copy instead of a backward-belt one. It
	// takes the slot that copy would have used: no other F or B on the chunk
	// runs between the two, so one slot serves.
	held []float32

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
	if err := w.prog.compile(w.variant.String(), w.t, n); err != nil {
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
		comm.Release(w.held)
		w.held = nil
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
	} else {
		// Inject the owned chunk into both belts; the first user of every belt
		// chunk is worker 0 at use index 0. One sealed copy of the master
		// weights serves both: it is shared, and each belt's send carries one
		// reference away. The turnaround chunk rides the forward belt only.
		tagFwd := Tag{Kind: comm.KindWeight, A: w.ownChunk, B: w.enc(beltFwd, 0)}
		payload := w.ownedPayload(tagFwd)
		if order.BackwardFromForward(p, w.ownChunk) {
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

	// Collect the fully-accumulated gradient for the owned chunk and step.
	// The opt span opens with the gradient in hand: the wait for it is the
	// receive's own stall span, and a span counts towards one phase only.
	d, err := w.beltRecv(p-1, Tag{Kind: comm.KindGrad, A: w.ownChunk, B: w.enc(beltRetire, 0)})
	if err != nil {
		return 0, err
	}
	optSpan := w.tr.Begin()
	if w.opts.BitFlip != nil {
		w.opts.BitFlip.Flip(w.t.Rank(), w.iter, FlipBeltGrad, w.beltBody(d))
	}
	if verr := w.verifyBelt(comm.SiteRetire, comm.KindGrad, w.ownChunk, d); verr != nil {
		comm.Release(d)
		return 0, verr
	}
	db := w.beltBody(d)
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

// runSchedule interprets the program: every op is one compute stage, and the
// stage fetches what it needs off the belts.
func (w *WeiPipe) runSchedule(st *wpState) error {
	for _, op := range w.prog.ops {
		var err error
		switch op.Phase {
		case 'F':
			err = w.fStage(st, op.MB, op.Chunk)
		case 'B':
			err = w.bStage(st, op.MB, op.Chunk)
		default:
			err = w.wStage(st, op.MB, op.Chunk)
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
// copy of the master weights, sealed under tag. The caller owns it.
func (w *WeiPipe) ownedPayload(tag Tag) []float32 {
	payload := comm.GetBuf(len(w.masterW) + w.pad)
	copy(payload, w.masterW)
	w.sealBelt(tag, payload)
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

// installBelt is the one way a received weight chunk — use `use` of belt-copy
// `belt` of chunk c — enters a stage, on the flat belt and the grouped one:
// chaos flip, verify, relay, bind, in that order. Verification comes first,
// so a corrupt chunk neither enters this rank's compute nor travels on. The
// relay (to rank relayTo of t, as use+1; none when relayTo < 0) comes before
// the bind, so the next hop's wire time runs under this stage's compute
// instead of after it: the payload is shared (comm.Retain), one reference
// leaves with Transport.Forward, and the stage computes out of the other
// until unbindStage. A shared payload is read-only to everyone, which is why the
// flip and the seal's rounding happen on the way in; the TCP writer only
// reads it, and the in-process fabric delivers a private copy. The payload
// is relayed as it arrived, so Forward lets the TCP writer seal it from the
// checksum this rank's reader verified — unless a chaos flip is armed: the
// flip writes the payload, and the relay then takes a full seal.
func (w *WeiPipe) installBelt(t Transport, belt, c, use int, payload []float32, relayTo int) error {
	if w.opts.BitFlip != nil {
		w.opts.BitFlip.Flip(w.t.Rank(), w.iter, FlipBeltWeight, w.beltBody(payload))
	}
	if verr := w.verifyBelt(comm.SiteBelt, comm.KindWeight, c, payload); verr != nil {
		comm.Release(payload)
		return verr
	}
	if relayTo >= 0 {
		relay := t.Forward
		if w.opts.BitFlip != nil {
			relay = t.SendOwned
		}
		comm.Retain(payload)
		span := w.tr.Begin()
		err := relay(relayTo, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use+1)}, payload)
		w.tr.End(span, trace.CodeRelay, int64(belt), int64(use+1))
		if err != nil {
			comm.Release(payload)
			return err
		}
	}
	w.bindStage(c, payload, false)
	return nil
}

// recvBeltChunk receives belt-copy `belt` of chunk c for use index `use`,
// relays it to the ring successor and binds chunk c's modules to it
// (installBelt). The stage that called it computes and then gives the
// buffer back with unbindStage.
func (w *WeiPipe) recvBeltChunk(belt, c, use int) error {
	if w.grouped != nil {
		return w.recvBeltChunkGrouped(belt, c, use)
	}
	p := w.t.Size()
	src := (w.t.Rank() - 1 + p) % p
	if use == 0 {
		src = w.owner(c)
	}
	payload, err := w.beltRecv(src, Tag{Kind: comm.KindWeight, A: c, B: w.enc(belt, use)})
	if err != nil {
		comm.Release(payload)
		return err
	}
	relayTo := -1
	if use < w.totalUses()-1 {
		relayTo = (w.t.Rank() + 1) % p
	}
	return w.installBelt(w.t, belt, c, use, payload, relayTo)
}

// bindHeld binds the turnaround chunk c's modules to the forward-belt copy
// fStage held for this B pass. The copy stays shared read-only, as it was
// through the F pass; under Options.Integrity its trailer is verified again,
// so a flip while it waited cannot enter the B pass.
func (w *WeiPipe) bindHeld(c int) error {
	buf := w.held
	w.held = nil
	if verr := w.verifyBelt(comm.SiteBelt, comm.KindWeight, c, buf); verr != nil {
		comm.Release(buf)
		return verr
	}
	w.bindStage(c, buf, false)
	return nil
}

// accumulateAndForwardD folds this worker's local gradient contribution for
// chunk c into the belt accumulator and passes it on (or retires it to the
// owner after the final use). It takes ownership of local: the buffer is
// donated downstream (or released on error) — callers must not touch it
// after the call.
func (w *WeiPipe) accumulateAndForwardD(c, use int, local []float32) error {
	body := w.beltBody(local)
	if use > 0 {
		prev := (w.t.Rank() - 1 + w.t.Size()) % w.t.Size()
		d, err := w.beltRecv(prev, Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltBwd, use)})
		if err != nil {
			comm.Release(d)
			comm.Release(local)
			return err
		}
		// Verify the incoming accumulator before folding our contribution in
		// — summing over a corrupt partial would launder the flip into a
		// freshly sealed chunk.
		if verr := w.verifyBelt(comm.SiteBelt, comm.KindGrad, c, d); verr != nil {
			comm.Release(d)
			comm.Release(local)
			return verr
		}
		db := w.beltBody(d)
		if len(db) != len(body) {
			comm.Release(d)
			comm.Release(local)
			return fmt.Errorf("pipeline: D chunk size mismatch %d != %d", len(db), len(body))
		}
		tensor.AddIntoF32(body, db)
		comm.Release(d)
	}
	if use < w.totalUses()-1 {
		tag := Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltBwd, use+1)}
		w.sealBelt(tag, local)
		return w.t.SendOwned((w.t.Rank()+1)%w.t.Size(), tag, local)
	}
	tag := Tag{Kind: comm.KindGrad, A: c, B: w.enc(beltRetire, 0)}
	w.sealBelt(tag, local)
	// The buddy copy must go out before the retire send: the retire donates
	// the buffer, after which local is no longer ours.
	if err := w.buddyRetire(c, local); err != nil {
		comm.Release(local)
		return err
	}
	return w.t.SendOwned(w.owner(c), tag, local)
}

// ---- compute stages ------------------------------------------------------

// fStage runs the forward of chunk c for this worker's microbatch mb, which
// is also the belt use index.
func (w *WeiPipe) fStage(st *wpState, mb, c int) error {
	w.post(mb, 'F')
	if err := w.recvBeltChunk(beltFwd, c, mb); err != nil {
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
	if buf := w.unbindStage(); order.BackwardFromForward(w.t.Size(), c) {
		w.held = buf // this microbatch's B pass on c runs on it
	} else {
		comm.Release(buf)
	}
	st.lossSum += loss
	if out != nil {
		st.fwdX[mb] = out
	} else {
		delete(st.fwdX, mb)
	}
	return nil
}

// bStage runs the B pass of chunk c for this worker's microbatch mb.
func (w *WeiPipe) bStage(st *wpState, mb, c int) error {
	w.post(mb, 'B')
	if order.BackwardFromForward(w.t.Size(), c) {
		if err := w.bindHeld(c); err != nil {
			return err
		}
	} else if err := w.recvBeltChunk(beltBwd, c, mb); err != nil {
		return err
	}
	caches := st.caches[mb]
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	dx := backwardRangeB(w.mdl, lo, hi, st.bwdDy[mb], caches[lo:hi], w.opts.Recompute)
	w.tr.End(span, trace.CodeB, int64(mb), int64(c))
	comm.Release(w.unbindStage())
	if lo > 0 && dx != nil {
		st.bwdDy[mb] = dx
	} else {
		delete(st.bwdDy, mb)
	}
	return nil
}

// wStage runs the W pass of chunk c for this worker's microbatch mb straight
// into the zeroed belt buffer that carries the result away, folds
// the incoming accumulator in and forwards it. When the microbatch's last W
// pass completes, its activations are released.
func (w *WeiPipe) wStage(st *wpState, mb, c int) error {
	w.post(mb, 'W')
	caches := st.caches[mb]
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	size := w.mdl.ChunkSize(lo, hi)
	local := comm.GetBuf(size + w.pad)
	clear(local[:size])
	w.bindStage(c, local, true)
	backwardRangeW(w.mdl, lo, hi, caches[lo:hi], w.wGrads)
	w.unbindStage()
	w.tr.End(span, trace.CodeW, int64(mb), int64(c))
	// accumulateAndForwardD owns local from here (donated or released inside).
	if err := w.accumulateAndForwardD(c, mb, local); err != nil {
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
