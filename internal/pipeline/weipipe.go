package pipeline

import (
	"fmt"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/order"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// WeiPipe is the weight-passing pipeline runtime. The model's modules are
// split into P contiguous chunks, which circulate around the worker ring as
// "belts":
//
//   - the forward belt, whose chunk c reaches worker w exactly when w's
//     forward pass needs modules [chunk c];
//   - the backward belt, which trails a full model-depth behind and feeds
//     each worker's backward passes in reverse chunk order.
//
// A pass does not always take its chunk off a belt. Each rank's weight plan
// (order.BeltPlan) keeps a pass's copy for the chunk's next use, which then
// runs on it, wherever the rank's two-copy budget has room: the keep rule's
// keeps (the passes in between use at most one other chunk; the turnaround
// chunk P−1's backward rounds always run on kept copies), then every
// further copy that leaves no pass with more than two copies of chunks the
// rank does not hold, bound or kept. Ranks hold different chunks, so a
// round of a chunk on a belt may ship to some ranks and not others. A copy
// its sender sends before its first wait (the owner's injections, rank
// P−1's relay of its own use) never goes to a rank that has already run a
// use of the chunk, whose earlier use keeps its copy instead. The gradient
// side stays the keep rule's (order.Shipped) on every rank. And a rank
// never receives a chunk it holds (order.Holds): the owner's master
// weights live in a belt-shaped buffer, which is the chunk's payload — its
// held uses bind it and its injections and relays forward it, sealed once
// an iteration (sealOwned), uncopied on a lossless wire — and every writer
// of the master waits until no transport holds it (piece.writable). A
// shipped round takes at most P−1 hops.
//
// A gradient accumulator D_c follows the backward belt (§4.2.1, "update
// pass"), with two changes. The owner never ships its own chunk's gradient:
// its W passes on c accumulate in place into one owner accumulator. And a
// round the keep rule's backward belt serves from kept copies, unless it is
// the last, circulates no gradient (order.Deferred): each rank holds its
// partial and its W pass on c one round later accumulates into it, so a
// rank holds at most two such partials. D_c visits the other uses in use
// order (order.GradChain): each adds its W pass and passes D_c on — past
// the owner in one hop, o−1 → o+1 — and the last retires the sum to the owner,
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
//
// Every message of an iteration — the owner's injection, each relay, each
// D hop and the retire, and on the grouped belt (grouped.go) the shard
// exchange and the holders' injections — is a row of order.Wiring. The plan
// files a rank's rows by the pass that sends or takes them (beltPlan), and
// the runtime sends and receives exactly those rows, on the flat ring and
// the grouped belt alike; it chooses only which copy each row carries.
type WeiPipe struct {
	// owned's one piece is the owned chunk's master weights and optimizer
	// (master); its modules are views of them for good, and every other
	// module has weights only while a stage has it bound to a belt buffer.
	owned
	t        Transport
	bounds   [][2]int
	strategy Strategy
	opts     Options

	ownChunk int // the chunk this worker owns: (rank+1) mod P

	// dpGroup, when non-nil, is the cross-replica communicator of this
	// chunk's owners in a hybrid WeiPipe×DP run: the fully-accumulated D is
	// additionally all-reduced across replicas before the step, and the
	// gradient average divides by globalN instead of the local microbatch
	// count.
	dpGroup Transport
	globalN int

	iter int

	// plan is this rank's weight plan (order.BeltPlan of the strategy).
	plan beltPlan

	// wGrads is the W pass's per-module gradient sets. They own no storage
	// (nn.ParamSet.NewUnbound): a W pass binds them to the chunk's gradient
	// buffer (gradBuf), so BackwardParams accumulates straight into the
	// accumulator or the payload it ships — or, into a buffer gradBuf hands
	// out fresh, stores (nn.ParamSet.BindFresh), so no buffer is cleared.
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
	// use (order.BeltPlan: at most two of chunks the rank does not hold at a
	// time, with the one bound, but where an early row's drop adds one; a
	// held chunk's copy is its holder's own payload). A kept copy takes
	// the buffer slot of the use it serves, whose belt copy never comes.
	kept [][]float32

	// masterBuf is the pooled, belt-shaped buffer the owned chunk's master
	// weights live in: master().w is its body, and the Integrity trailer
	// (pad) follows it.
	masterBuf []float32
	// ownBelt is the owned chunk's belt payload for the running iteration
	// (sealOwned), which its injections and held-use relays forward and its
	// held uses bind: masterBuf itself on a lossless wire, one rounded copy
	// of it on a lossy one. Nil between iterations.
	ownBelt []float32

	// pad is the checksum trailer length every belt buffer grows by
	// (Options.Integrity; see integrity.go), 0 when off.
	pad int

	// ownerIters and shadowIters count the step phases the owned piece and,
	// under buddy replication (buddy.go), owned.shadow have committed: what
	// their rollbacks are resolved against (piece.at).
	ownerIters, shadowIters int

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

	// afterW, when non-nil, runs after every W pass, on the rank's
	// goroutine: tests observe the gradient buffers the rank holds there.
	afterW func()

	// tr is this rank's runtime tracer (nil when tracing is off).
	tr *trace.Tracer
}

// master returns the owned chunk's piece: its fp32 master weights and their
// optimizer.
func (w *WeiPipe) master() *piece { return &w.pieces[0] }

// ArenaHighWater implements ArenaMeter.
func (w *WeiPipe) ArenaHighWater() int { return w.apool.highWater() }

// ArenaBytes implements ArenaMeter.
func (w *WeiPipe) ArenaBytes() int { return w.apool.bytes() }

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

// NewWeiPipe builds this rank's WeiPipe trainer for strategy s:
// StrategyWeiPipeNaive, StrategyWeiPipeInterleave, StrategyWZB1 or
// StrategyWZB2.
func NewWeiPipe(t Transport, cfg model.Config, opts Options, s Strategy) (*WeiPipe, error) {
	mdl := model.BuildShells(cfg)
	p := t.Size()
	if p > len(mdl.Modules) {
		return nil, fmt.Errorf("pipeline: %d ranks exceed %d modules", p, len(mdl.Modules))
	}
	w := &WeiPipe{
		owned:    owned{mdl: mdl, stepRule: newStepRule(opts, t.Rank())},
		t:        t,
		bounds:   mdl.Partition(p),
		strategy: s,
		opts:     opts,
		kept:     make([][]float32, p),
		dAcc:     make([][]float32, p),
	}
	w.ownChunk = (t.Rank() + 1) % p
	if opts.Integrity {
		w.pad = comm.ChecksumTrailerLen
	}
	lo, hi := w.chunkRange(w.ownChunk)
	size := mdl.ChunkSize(lo, hi)
	w.masterBuf = comm.GetBuf(size + w.pad)
	w.ownRange(lo, hi, opts.Adam, w.masterBuf[:size])
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
	w.initIntegrity()
	if opts.buddy && p >= 2 {
		w.initBuddy()
	}
	return w, nil
}

// chunkRange returns the module range of chunk c.
func (w *WeiPipe) chunkRange(c int) (int, int) { return w.bounds[c][0], w.bounds[c][1] }

// enc builds a tag B field from (iteration, belt, belt use index).
func (w *WeiPipe) enc(belt, use int) int {
	return (w.iter*beltCount+belt)<<beltUseBits | use
}

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
	n := len(batches)
	// Compiling also rejects a microbatch count the ring does not divide.
	if err := w.plan.compile(string(w.strategy), w.t, n, w.groupSize()); err != nil {
		return 0, err
	}
	// Chaos-tier resident-state flips land before the guard check, so a
	// scheduled corruption is always in the detector's field of view.
	w.injectStateFlips()
	if gerr := w.checkResidentGuards(); gerr != nil {
		return 0, gerr
	}
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
		w.dropOwned()
		for mb, a := range st.arenas {
			w.apool.release(a)
			delete(st.arenas, mb)
		}
	}()

	if w.grouped != nil {
		defer w.grouped.releaseCache()
	}
	if err := w.startRows(); err != nil {
		return 0, err
	}

	if serr := w.runSchedule(st); serr != nil {
		return 0, serr
	}
	// Every use of the iteration has run: the owned chunk's payload has no
	// taker left here, so the step waits only on the transports' references.
	if w.grouped != nil {
		w.grouped.releaseCache()
	}
	w.dropOwned()

	// Sum the owned chunk's gradient — the owner's own W passes and the
	// chain's retire — and step. The opt span opens with the gradient in
	// hand: the wait for it is the receive's own stall span, and a span
	// counts towards one phase only.
	d, fresh := w.gradBuf(w.ownChunk)
	if fresh { // no W pass on this rank reached the chunk
		clear(w.beltBody(d))
	}
	retire := Tag{Kind: comm.KindGrad, A: w.ownChunk, B: w.enc(beltRetire, 0)}
	var r []float32 // the retire; none at p=1, where every use is the owner's
	if row := w.plan.retire; row.Kind != 0 {
		if r, err = w.recvRow(row); err != nil {
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
		if _, err := w.foldD(comm.SiteRetire, w.ownChunk, d, r, false); err != nil {
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
	// One scalar all-reduce gives the step rule its Σg²: NaN/Inf propagates
	// through the sum, and every rank gets the identical float32-rounded
	// sum, so every rank (and every buddy shadow) reaches the identical
	// verdict.
	scale, gs, skip, err := w.decideStep(denom, func(local float64) (float64, error) {
		return comm.AllReduceScalarSum(w.t, local, (1<<30)+w.iter)
	}, db)
	if err != nil {
		comm.Release(d)
		return 0, err
	}
	w.lastInv, w.lastScale, w.lastSkip = gradFactor(denom), scale, skip
	w.master().stash(w.ownerIters)
	if !skip {
		w.applyStep(gs, db)
	}
	w.ownerIters++
	comm.Release(d)

	if w.shadow != nil {
		if err := w.buddyStep(); err != nil {
			return 0, err
		}
	}
	// The step (or the skip decision) was the last legitimate mutation of
	// the resident state this iteration; re-arm the guard over it.
	w.master().reseal()
	w.tr.End(optSpan, trace.CodeOpt, int64(w.iter), 0)

	w.iter++
	loss, err = comm.AllReduceScalarSum(w.t, st.lossSum, w.iter)
	if err != nil {
		return 0, err
	}
	return loss / float64(n), nil
}

// ---- the program order and its interpreter --------------------------------

// beltPlan is a rank's compiled weight plan: its passes (order.BeltPlan)
// and its rows of the iteration's wiring (order.Wiring), filed by the pass
// that sends or takes them, so a pass finds its rows by index.
type beltPlan struct {
	uses []order.Use
	n    int // the microbatch count uses was compiled for
	// start holds the rows the rank sends or receives at iteration start, in
	// table order: the flat owner's injection, the shard exchange and the
	// grouped round-0 injections.
	start []order.Msg
	// in[i] is the row pass i takes: the weights an F or B pass runs on, the
	// accumulator a W pass folds in. Kind 0: none.
	in []order.Msg
	// out[i] holds the rows pass i sends.
	out [][]order.Msg
	// retire is the row that retires the owned chunk's gradient here (Kind
	// 0: none, at p=1).
	retire order.Msg
}

// compile makes pl the plan of t's rank under strategy for n microbatches,
// on belts of m-rank groups. The plan changes only with n, so a training run
// compiles it once.
func (pl *beltPlan) compile(strategy string, t Transport, n, m int) error {
	if pl.uses != nil && pl.n == n {
		return nil
	}
	rank := t.Rank()
	uses, err := order.BeltPlan(strategy, rank, t.Size(), n, m)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	rows, err := order.Wiring(strategy, t.Size(), n, m)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	pass := make(map[order.Op]int, len(uses))
	for i, u := range uses {
		pass[u.Op] = i
	}
	*pl = beltPlan{uses: uses, n: n, in: make([]order.Msg, len(uses)), out: make([][]order.Msg, len(uses))}
	for _, r := range rows {
		switch {
		case r.Src == rank && r.Pass < 0, r.Dst == rank && r.Kind == 'X':
			pl.start = append(pl.start, r)
		case r.Src == rank:
			pl.out[r.Pass] = append(pl.out[r.Pass], r)
		case r.Dst == rank && r.Kind == 'R':
			pl.retire = r
		case r.Dst == rank:
			phase := r.Kind
			if phase == 'D' {
				phase = 'W'
			}
			pl.in[pass[order.Op{Phase: phase, MB: r.Use, Chunk: r.Chunk}]] = r
		}
	}
	return nil
}

// runSchedule interprets the plan: every pass is one compute stage, and the
// stage fetches what it needs off the belts or from a kept copy.
func (w *WeiPipe) runSchedule(st *wpState) error {
	for i, u := range w.plan.uses {
		var err error
		switch u.Phase {
		case 'F':
			err = w.fStage(st, i)
		case 'B':
			err = w.bStage(st, i)
		default:
			if err = w.wStage(st, i); err == nil && w.afterW != nil {
				w.afterW()
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- belt plumbing -------------------------------------------------------

// recvRow blocks for row r, the next belt payload the schedule consumes,
// recording the compute thread's wait as belt stall — the measured exposed-
// communication time. The caller owns the payload.
func (w *WeiPipe) recvRow(r order.Msg) ([]float32, error) {
	t, src := w.rowPeer(r, r.Src)
	tag := w.rowTag(r)
	span := w.tr.Begin()
	start := time.Now()
	payload, err := t.Recv(src, tag)
	wait := time.Since(start)
	w.tr.End(span, trace.CodeStall, int64(tag.Kind), int64(src))
	w.stats.RecordBeltStall(wait)
	return payload, err
}

// sealOwned makes the owned chunk's belt payload for the iteration
// (ownBelt), before its first injection. On a lossless wire that is the
// master's own buffer: nothing is copied, and its wire checksum and
// Integrity trailer are taken once, in place — under Integrity from the
// resident guard's checksum of the master, which the iteration's entry check
// has just verified. Forward then seals every frame of it without reading
// it. A lossy wire delivers rounded values, which every rank, the owner's
// held uses included, must compute on, so there the payload is one copy of
// the master rounded to the wire's values (comm.RoundToWire) and sealed.
func (w *WeiPipe) sealOwned() {
	tag := w.rowTag(order.Msg{Kind: 'F', Chunk: w.ownChunk})
	master := w.master()
	if codec := w.t.WireCodec(tag); codec != comm.CodecF32 {
		w.ownBelt = comm.GetBuf(len(w.masterBuf))
		body := w.beltBody(w.ownBelt)
		copy(body, master.w)
		comm.RoundToWire(codec, body)
		w.sealBelt(tag, w.ownBelt)
		return
	}
	w.ownBelt = w.masterBuf
	seals := w.t.SealsF32(tag)
	if w.pad == 0 && !seals {
		return
	}
	var crc uint32
	if master.sums != nil {
		crc = master.sums[0]
	} else {
		crc = comm.ChecksumSlice(master.w)
	}
	if w.pad > 0 {
		master.writable() // the trailer is written in place
	}
	if seals {
		w.sealWire(w.masterBuf, crc)
	} else {
		comm.SealChunkCRC(w.masterBuf, crc)
	}
}

// dropOwned ends the iteration's use of the owned chunk's payload: a lossy
// wire's rounded copy goes back to the pool; the master's buffer stays.
func (w *WeiPipe) dropOwned() {
	if len(w.ownBelt) > 0 && &w.ownBelt[0] != &w.masterBuf[0] {
		comm.Release(w.ownBelt)
	}
	w.ownBelt = nil
}

// groupSize returns the rank count of the belts' groups: 1 on the flat ring.
func (w *WeiPipe) groupSize() int {
	if w.grouped == nil {
		return 1
	}
	return w.grouped.m
}

// rowTag returns the wire tag of row r in the current iteration.
func (w *WeiPipe) rowTag(r order.Msg) Tag {
	kind, belt := comm.KindWeight, beltFwd
	switch r.Kind {
	case 'B':
		belt = beltBwd
	case 'X':
		belt = beltXchg
	case 'D':
		kind, belt = comm.KindGrad, beltBwd
	case 'R':
		kind, belt = comm.KindGrad, beltRetire
	}
	return Tag{Kind: kind, A: r.Chunk, B: w.enc(belt, r.Use)}
}

// rowPeer returns the transport row r travels on and the index there of
// ring rank `rank`, its sender's or its receiver's: the ring itself, or the
// group sub-transport, which numbers the members of a group of contiguous
// ranks from 0.
func (w *WeiPipe) rowPeer(r order.Msg, rank int) (Transport, int) {
	if r.Group {
		return w.grouped.grp, rank % w.grouped.m
	}
	return w.t, rank
}

// cached returns this rank's cached payload of chunk c on the grouped belt,
// or nil.
func (w *WeiPipe) cached(c int) []float32 {
	if w.grouped == nil {
		return nil
	}
	return w.grouped.cache[c]
}

// sendCached sends row r from this rank's cached shard of its chunk without
// copying it: the cache keeps its reference and the transport takes another.
// It forwards (Transport.Forward): a cached chunk is either one this rank
// received and has not written since, or the owner's own payload, sealed
// for the iteration (sealOwned).
func (w *WeiPipe) sendCached(r order.Msg) error {
	t, dst := w.rowPeer(r, r.Dst)
	payload := w.grouped.cache[r.Chunk]
	comm.Retain(payload)
	return t.Forward(dst, w.rowTag(r), payload)
}

// startRows seals the owned chunk's payload (sealOwned) and runs the rank's
// iteration-start rows in table order: the flat owner's injections, the
// grouped belt's shard exchange and its round-0 injections. The exchange
// comes hop by hop (order.Wiring), and a hop waits only for hops before it,
// so the fixed order cannot deadlock. A grouped holder that owns its chunk caches the
// owned payload first, and every row of a cached chunk forwards the cache.
// The owned chunk's other rows forward the payload itself. An exchange hop
// into this rank is verified before it is cached or forwarded: a corrupt
// shard must neither seed R rounds of local consumption nor travel on.
func (w *WeiPipe) startRows() error {
	rank, own := w.t.Rank(), w.ownChunk
	w.sealOwned()
	if w.grouped != nil && order.Holds(rank, own, w.t.Size(), w.grouped.m) {
		comm.Retain(w.ownBelt)
		w.grouped.cache[own] = w.ownBelt
	}
	for _, r := range w.plan.start {
		var err error
		switch {
		case r.Dst == rank:
			var buf []float32
			if buf, err = w.recvRow(r); err == nil {
				err = w.verifyBelt(comm.SiteBelt, comm.KindWeight, r.Chunk, buf)
			}
			if err != nil {
				comm.Release(buf)
				break
			}
			w.grouped.cache[r.Chunk] = buf
		case w.cached(r.Chunk) != nil:
			err = w.sendCached(r)
		default:
			t, dst := w.rowPeer(r, r.Dst)
			comm.Retain(w.ownBelt)
			err = t.Forward(dst, w.rowTag(r), w.ownBelt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// heldPayload is a holder's copy of chunk c for pass u, in place of the
// belt's, shared: on the flat belt the owned chunk's payload (ownBelt), on
// the grouped belt the cached payload — or, for the chaos injector, which
// writes what it is handed, a private copy of either. The caller owns it.
func (w *WeiPipe) heldPayload(u order.Use) []float32 {
	payload := w.cached(u.Chunk)
	if payload == nil {
		payload = w.ownBelt
	}
	comm.Retain(payload)
	if w.opts.BitFlip != nil {
		private := append(comm.GetBuf(len(payload))[:0], payload...)
		comm.Release(payload)
		return private
	}
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
// views of buf's body for the coming stage; gradient sets bind fresh when
// buf holds no gradient yet (gradBuf). The stage ends with unbindStage; so
// does an aborted iteration, which is why the binding is recorded here and
// not on the stage's stack.
func (w *WeiPipe) bindStage(c int, buf []float32, grads, fresh bool) {
	lo, hi := w.chunkRange(c)
	body := w.beltBody(buf)
	if grads {
		bindSets(body, w.wGrads[lo:hi], fresh)
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
			w.mdl.BindChunk(lo, hi, w.master().w)
		}
	}
	return b.buf
}

// bindWeights is the one way a copy of chunk c's weights enters pass i, on
// the flat belt and the grouped one: fetch (when the plan gathers: the
// pass's row off the belt, or, with no row, the holder's own copy; else the
// copy the chunk's previous pass kept), chaos flip, verify, relay, bind,
// inject, in that order. The relay and the injection are the pass's rows:
// the next use's copy, and a grouped holder's next round into the group's
// first rank. Verification comes first, so a corrupt chunk neither enters
// this rank's compute nor travels on, and a kept copy is verified again, so
// a flip while it waited cannot enter the pass. The relay comes before the
// bind, so the next hop's wire time runs under this stage's compute instead
// of after it, and carries the pass's own copy: the payload is shared
// (comm.Retain), one reference leaves with Transport.Forward, and the stage
// computes out of the other until unbindStage. A shared payload is
// read-only to everyone, which is why the flip and the seal's rounding
// happen on the way in; the TCP writer only reads it, and the in-process
// fabric delivers a private copy. The payload is relayed as it arrived, so
// Forward lets the TCP writer seal it from the checksum this rank's reader
// verified — unless a chaos flip is armed: the flip writes the payload, and
// the relay then takes a full seal. The injection goes after the bind and
// carries the cached shard: the holder's own consumption paces it, so the
// group's in-flight copies stay bounded as on the flat ring.
func (w *WeiPipe) bindWeights(i int) error {
	u := w.plan.uses[i]
	c := u.Chunk
	var payload []float32
	switch r := w.plan.in[i]; {
	case !u.Gather:
		payload, w.kept[c] = w.kept[c], nil
	case r.Kind == 0:
		payload = w.heldPayload(u)
	default:
		var err error
		if payload, err = w.recvRow(r); err != nil {
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
	m := w.groupSize()
	for _, r := range w.plan.out[i] {
		if r.Injects(m) {
			continue
		}
		if err := w.relay(r, payload); err != nil {
			comm.Release(payload)
			return err
		}
	}
	w.bindStage(c, payload, false, false)
	for _, r := range w.plan.out[i] {
		if r.Injects(m) {
			if err := w.sendCached(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// relay sends row r, the next use of the pass whose copy is payload.
func (w *WeiPipe) relay(r order.Msg, payload []float32) error {
	t, dst := w.rowPeer(r, r.Dst)
	relay := t.Forward
	if w.opts.BitFlip != nil {
		relay = t.SendOwned
	}
	belt := beltFwd
	if r.Kind == 'B' {
		belt = beltBwd
	}
	comm.Retain(payload)
	span := w.tr.Begin()
	err := relay(dst, w.rowTag(r), payload)
	w.tr.End(span, trace.CodeRelay, int64(belt), int64(r.Use))
	return err
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
// accumulates into: the one held since its previous pass (dAcc), or, fresh,
// a new one whose contents are garbage, which the pass overwrites
// (bindStage). The caller owns it.
func (w *WeiPipe) gradBuf(c int) (buf []float32, fresh bool) {
	buf = w.dAcc[c]
	w.dAcc[c] = nil
	if buf == nil {
		lo, hi := w.chunkRange(c)
		return comm.GetBuf(w.mdl.ChunkSize(lo, hi) + w.pad), true
	}
	return buf, false
}

// foldD verifies a received accumulator d of chunk c and adds it into acc,
// releasing d. It is verified before the fold: summing over a corrupt
// partial would launder the flip into a freshly sealed chunk. With crc it
// returns the checksum of acc's body, folded in as it is summed.
func (w *WeiPipe) foldD(site comm.IntegritySite, c int, acc, d []float32, crc bool) (uint32, error) {
	defer comm.Release(d)
	if verr := w.verifyBelt(site, comm.KindGrad, c, d); verr != nil {
		return 0, verr
	}
	body, db := w.beltBody(acc), w.beltBody(d)
	if len(db) != len(body) {
		return 0, fmt.Errorf("pipeline: D chunk size mismatch %d != %d", len(db), len(body))
	}
	if crc {
		return tensor.AddIntoCRC32(body, db), nil
	}
	tensor.AddIntoF32(body, db)
	return 0, nil
}

// passD moves chunk c's gradient on after this rank's W pass i accumulated
// into buf, along the chain (order.GradChain) as the pass's rows say. It
// first folds in the accumulator the pass's row brings from the chain's
// previous use. Then it sends buf on its outgoing row — to the next use's
// rank, or, from the chain's last use, to the owner as the retire — or, with
// none, keeps it: the owner's, whose passes accumulate in place until the
// step; one in a deferred round (order.Deferred), whose partial waits for
// this rank's W pass on c one round later; and one whose next chain use runs
// here too (p=2). A fold that is followed by a send where the transport
// checksums the payload's f32 image takes that checksum as it sums
// (sealWire), and the send forwards. passD owns buf: it is held, donated or
// released, and the caller must not touch it after the call.
func (w *WeiPipe) passD(i int, buf []float32) error {
	c, out := w.plan.uses[i].Chunk, w.plan.out[i]
	var t Transport
	var dst int
	var tag Tag
	if len(out) > 0 {
		t, dst = w.rowPeer(out[0], out[0].Dst)
		tag = w.rowTag(out[0])
	}
	if r := w.plan.in[i]; r.Kind != 0 {
		d, err := w.recvRow(r)
		if err != nil {
			comm.Release(d)
			comm.Release(buf)
			return err
		}
		seal := t != nil && t.SealsF32(tag)
		crc, err := w.foldD(comm.SiteBelt, c, buf, d, seal)
		if err != nil {
			comm.Release(buf)
			return err
		}
		if seal {
			w.sealWire(buf, crc)
			return t.Forward(dst, tag, buf)
		}
	}
	if len(out) == 0 {
		w.dAcc[c] = buf
		return nil
	}
	w.sealBelt(tag, buf)
	return t.SendOwned(dst, tag, buf)
}

// ---- compute stages ------------------------------------------------------

// fStage runs forward pass i: chunk u.Chunk for this worker's microbatch
// u.MB, which is also the belt use index.
func (w *WeiPipe) fStage(st *wpState, i int) error {
	u := w.plan.uses[i]
	mb, c := u.MB, u.Chunk
	w.post(mb, 'F')
	if err := w.bindWeights(i); err != nil {
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

// bStage runs B pass i: chunk u.Chunk for this worker's microbatch u.MB.
func (w *WeiPipe) bStage(st *wpState, i int) error {
	u := w.plan.uses[i]
	mb, c := u.MB, u.Chunk
	w.post(mb, 'B')
	if err := w.bindWeights(i); err != nil {
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

// wStage runs W pass i — chunk c for this worker's microbatch mb — straight
// into the chunk's gradient buffer (gradBuf) and moves the gradient on along
// its chain (passD). When the microbatch's last W pass completes, its
// activations are released.
func (w *WeiPipe) wStage(st *wpState, i int) error {
	mb, c := w.plan.uses[i].MB, w.plan.uses[i].Chunk
	w.post(mb, 'W')
	caches := st.caches[mb]
	lo, hi := w.chunkRange(c)
	span := w.tr.Begin()
	buf, fresh := w.gradBuf(c)
	w.bindStage(c, buf, true, fresh)
	backwardRangeW(w.mdl, lo, hi, caches[lo:hi], w.wGrads)
	w.unbindStage()
	w.tr.End(span, trace.CodeW, int64(mb), int64(c))
	// passD owns buf from here (held, donated or released inside).
	if err := w.passD(i, buf); err != nil {
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
