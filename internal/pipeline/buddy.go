package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
)

// Buddy replication gives every WeiPipe rank a live, bit-exact replica of
// its ring successor's trainer state — fp32 master weights, AdamW moments
// and step count — so a dead rank's shard can be rebuilt by its
// predecessor without touching a checkpoint.
//
// The trick is that the wire already carries everything the replica needs.
// Chunk c's fully-accumulated gradient retires at worker P−1, which
// delivers it to the owner. With replication on, the retiring worker sends
// one extra copy of the very same payload to the owner's predecessor (the
// "buddy"); both sends are asynchronous (Send never blocks on this
// transport family), and the belt messages (KindWeight/KindGrad) are
// untouched, so the critical path's message count per iteration is
// identical with replication on or off.
//
// The buddy cannot copy the owner's optimizer moments off the wire — they
// never travel. Instead it *replays* the owner's step: both sides start
// from the same deterministic initial state (model.Build is seeded, fresh
// moments are zero), and each iteration both apply the identical
// arithmetic — the same raw gradient bytes, the same 1/(n·scale) factor,
// the same globally-all-reduced clip/guard decision (AllReduceScalarSum
// returns the identical float64 on every rank). By induction the shadow
// state is bit-identical to the owner's forever.
//
// Rank r owns chunk (r+1) mod P, so r's successor owns chunk (r+2) mod P:
// that is the chunk rank r shadows. The buddy of chunk c's owner is rank
// (owner(c)−1+P) mod P. On rank P−1 one of the dual deliveries is to
// itself; it short-circuits through a local stash instead of the wire.

// buddyState is the shadow replica of the successor's owned chunk.
type buddyState struct {
	chunk int // the shadowed chunk: (rank+2) mod P
	w     []float32
	opt   *optim.AdamW

	scratch      []float32 // per-iteration gradient replay buffer
	pendingD     []float32 // local stash for the rank P−1 self-delivery
	pendingLocal bool

	iters int // completed shadow step phases

	// One-deep rollback so a repair cut at the previous iteration barrier
	// can be exported even when this iteration's step already ran.
	rbW, rbM, rbV []float32
	rbStep        int
	rbIters       int
	rbValid       bool
}

// initBuddy sets up buddy replication (and the owned chunk's rollback
// stash). Called from NewWeiPipe before any training: the shadow starts
// from the successor chunk's seed-built initial weights, rebuilt here
// (model.InitChunk) — which is why it needs no bootstrap message.
func (w *WeiPipe) initBuddy() {
	p := w.t.Size()
	sc := (w.t.Rank() + 2) % p
	lo, hi := w.chunkRange(sc)
	size := w.mdl.ChunkSize(lo, hi)
	bs := &buddyState{
		chunk:   sc,
		w:       make([]float32, size),
		opt:     optim.NewAdamW(size, w.opts.Adam),
		scratch: make([]float32, size),
		// The self-stash holds the exact sealed payload the wire path would
		// deliver, trailer included, so both delivery paths verify alike.
		pendingD: make([]float32, size+w.pad),
		rbW:      make([]float32, size),
		rbM:      make([]float32, size),
		rbV:      make([]float32, size),
	}
	w.mdl.InitChunk(lo, hi, bs.w)
	w.buddy = bs

	own := len(w.masterW)
	w.rbW = make([]float32, own)
	w.rbM = make([]float32, own)
	w.rbV = make([]float32, own)
}

// buddyRank returns the rank shadowing chunk c: the owner's predecessor.
func (w *WeiPipe) buddyRank(c int) int {
	p := w.t.Size()
	return (w.owner(c) - 1 + p) % p
}

// buddyRetire dual-delivers chunk c's freshly retired gradient to its
// buddy. Called by the retiring worker (rank P−1) right after the retire
// send; the payload is the exact bytes the owner receives. The send is
// asynchronous and uses KindBuddy, leaving the critical path's
// KindWeight/KindGrad message counts untouched.
func (w *WeiPipe) buddyRetire(c int, local []float32) error {
	if w.buddy == nil {
		return nil
	}
	b := w.buddyRank(c)
	if b == w.t.Rank() {
		if len(local) != len(w.buddy.pendingD) {
			return fmt.Errorf("pipeline: buddy self-stash size mismatch %d != %d",
				len(local), len(w.buddy.pendingD))
		}
		copy(w.buddy.pendingD, local)
		w.buddy.pendingLocal = true
		return nil
	}
	return w.t.Send(b, Tag{Kind: comm.KindBuddy, A: c, B: w.enc(beltRetire, 0)}, local)
}

// stashOwnedRollback snapshots the owned chunk's pre-step state, so a
// repair cut at the previous iteration barrier stays exportable after this
// iteration's step mutates the live state.
func (w *WeiPipe) stashOwnedRollback() {
	if w.buddy == nil {
		return
	}
	copy(w.rbW, w.masterW)
	w.rbStep = w.opt.CopyStateInto(w.rbM, w.rbV)
	w.rbIters = w.ownerIters
	w.rbValid = true
}

// buddyStep replays the successor's optimizer step on the shadow replica,
// consuming the dual-delivered retired gradient and the step-phase
// decisions (gradient factor, global Σg², skip verdict) the owner's phase
// just recorded — all of which are bit-identical on every rank.
func (w *WeiPipe) buddyStep() error {
	bs := w.buddy
	var d []float32
	if bs.pendingLocal {
		d = bs.pendingD
		bs.pendingLocal = false
	} else {
		var err error
		d, err = w.t.Recv(w.t.Size()-1,
			Tag{Kind: comm.KindBuddy, A: bs.chunk, B: w.enc(beltRetire, 0)})
		if err != nil {
			return err
		}
		defer comm.Release(d)
	}
	// The dual-delivered payload carries the retiring worker's seal; verify
	// it before replaying — a flip in the buddy copy would otherwise fork
	// the shadow from the owner silently.
	if verr := w.verifyBelt(comm.SiteBuddy, comm.KindBuddy, bs.chunk, d); verr != nil {
		return verr
	}
	db := w.beltBody(d)
	if len(db) != len(bs.w) {
		return fmt.Errorf("pipeline: buddy gradient size mismatch %d != %d", len(db), len(bs.w))
	}
	for i := range db {
		bs.scratch[i] = db[i] * w.lastInv
	}
	// Pre-step rollback stash, mirroring the owned chunk's.
	copy(bs.rbW, bs.w)
	bs.rbStep = bs.opt.CopyStateInto(bs.rbM, bs.rbV)
	bs.rbIters = bs.iters
	bs.rbValid = true
	if !w.lastSkip {
		if w.lastScale != 1 {
			tensor.ScaleF32(bs.scratch, bs.scratch, w.lastScale)
		}
		bs.opt.Step(bs.w, bs.scratch)
	}
	bs.iters++
	return nil
}

// StateExport is a point-in-time copy of one chunk's full trainer state,
// harvested during elastic repair.
type StateExport struct {
	W, M, V []float32
	Step    int
}

// exportAt resolves "state as of completed iteration atIter" against a
// live/rollback pair: iters counts completed step phases, and the rollback
// holds the state from just before the latest one.
func exportAt(atIter, iters int, curW, curM, curV []float32, curStep int,
	rbValid bool, rbIters int, rbW, rbM, rbV []float32, rbStep int) (StateExport, error) {

	cp := func(w, m, v []float32, step int) StateExport {
		return StateExport{
			W:    append([]float32(nil), w...),
			M:    append([]float32(nil), m...),
			V:    append([]float32(nil), v...),
			Step: step,
		}
	}
	switch {
	case iters == atIter:
		return cp(curW, curM, curV, curStep), nil
	case iters == atIter+1 && rbValid && rbIters == atIter:
		return cp(rbW, rbM, rbV, rbStep), nil
	default:
		return StateExport{}, fmt.Errorf("pipeline: state at iteration %d unavailable (completed %d, rollback valid=%v)",
			atIter, iters, rbValid)
	}
}

// ExportOwnedStateAt returns the owned chunk's state as of completed
// iteration atIter — the live state, or the one-deep rollback when this
// rank already stepped past the repair cut. The trainer must be quiescent.
func (w *WeiPipe) ExportOwnedStateAt(atIter int) (StateExport, error) {
	step, m, v := w.opt.ExportState()
	return exportAt(atIter, w.ownerIters, w.masterW, m, v, step,
		w.rbValid, w.rbIters, w.rbW, w.rbM, w.rbV, w.rbStep)
}

// ExportBuddyStateAt returns the shadowed successor chunk's state as of
// completed iteration atIter. Fails when buddy replication is off.
func (w *WeiPipe) ExportBuddyStateAt(atIter int) (StateExport, error) {
	bs := w.buddy
	if bs == nil {
		return StateExport{}, fmt.Errorf("pipeline: buddy replication disabled on rank %d", w.t.Rank())
	}
	step, m, v := bs.opt.ExportState()
	return exportAt(atIter, bs.iters, bs.w, m, v, step,
		bs.rbValid, bs.rbIters, bs.rbW, bs.rbM, bs.rbV, bs.rbStep)
}

// BuddyChunk reports which chunk this rank shadows (ok=false when buddy
// replication is off).
func (w *WeiPipe) BuddyChunk() (int, bool) {
	if w.buddy == nil {
		return 0, false
	}
	return w.buddy.chunk, true
}

// CompletedStepPhases reports how many iteration step phases this rank has
// fully committed — the lower of the owned chunk's and the shadow's
// counters, which is what bounds the repair cut this rank can serve.
func (w *WeiPipe) CompletedStepPhases() int {
	if w.buddy != nil && w.buddy.iters < w.ownerIters {
		return w.buddy.iters
	}
	return w.ownerIters
}

// SeedBuddyFromState reinitialises the shadow replica from harvested state
// (used when restoring a repaired snapshot into a fresh cluster, where the
// successor's moments are non-zero). The slices are copied in.
func (w *WeiPipe) SeedBuddyFromState(st StateExport, iters int) error {
	bs := w.buddy
	if bs == nil {
		return nil
	}
	if len(st.W) != len(bs.w) {
		return fmt.Errorf("pipeline: buddy seed size mismatch %d != %d", len(st.W), len(bs.w))
	}
	copy(bs.w, st.W)
	if err := bs.opt.LoadState(st.Step, st.M, st.V); err != nil {
		return err
	}
	bs.iters = iters
	bs.rbValid = false
	bs.pendingLocal = false
	return nil
}
