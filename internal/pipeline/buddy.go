package pipeline

import (
	"fmt"

	"weipipe/internal/comm"
)

// Buddy replication gives every WeiPipe rank a live, bit-exact replica of
// its ring successor's trainer state — fp32 master weights, AdamW moments
// and step count — so a dead rank's shard can be rebuilt by its
// predecessor without touching a checkpoint.
//
// The replica needs one message an iteration. Chunk c's owner sums its
// gradient — its own W passes, accumulated in place, and the chain's retire
// — and rounds the sum to the wire's values. With replication on, it seals
// the sum and sends one copy to its predecessor (the "buddy") before it
// steps on it. The send is asynchronous (Send never blocks on this
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
// that is the chunk rank r shadows, and its successor sends it the
// gradient. The buddy of chunk c's owner is rank (owner(c)−1+P) mod P,
// never the owner itself, so the copy always travels.

// initBuddy arms buddy replication. Called from NewWeiPipe before any
// training: the shadow is a piece of the successor chunk, built from its
// seed-built initial weights (model.InitChunk) — which is why it needs no
// bootstrap message — and it and the owned piece keep one-deep rollbacks.
func (w *WeiPipe) initBuddy() {
	sc, _ := w.BuddyChunk()
	lo, hi := w.chunkRange(sc)
	w.shadow = w.newPiece(lo, hi, w.opts.Adam, make([]float32, w.mdl.ChunkSize(lo, hi)))
	w.shadow.arm()
	w.master().arm()
}

// buddySend sends the owned chunk's summed, wire-rounded gradient d to the
// owner's buddy, sealed, before the step consumes it: the exact bits the
// owner steps on. The send copies d and is asynchronous, and it uses
// KindBuddy, leaving the critical path's KindWeight/KindGrad message counts
// untouched.
func (w *WeiPipe) buddySend(d []float32) error {
	if w.shadow == nil {
		return nil
	}
	p := w.t.Size()
	tag := Tag{Kind: comm.KindBuddy, A: w.ownChunk, B: w.enc(beltRetire, 0)}
	w.sealBelt(tag, d)
	return w.t.Send((w.t.Rank()-1+p)%p, tag, d)
}

// buddyStep replays the successor's optimizer step on the shadow,
// consuming the gradient the successor sent (buddySend) and the step-phase
// decisions (gradient factor, global Σg², skip verdict) this rank's own
// phase just recorded — all of which are bit-identical on every rank. The
// received payload is this rank's, so the replay scales it in place.
func (w *WeiPipe) buddyStep() error {
	c, _ := w.BuddyChunk()
	d, err := w.t.Recv((w.t.Rank()+1)%w.t.Size(), Tag{Kind: comm.KindBuddy, A: c, B: w.enc(beltRetire, 0)})
	if err != nil {
		return err
	}
	defer comm.Release(d)
	// The payload carries the owner's seal; verify it before replaying — a
	// flip in the buddy copy would otherwise fork the shadow from the owner
	// silently.
	if verr := w.verifyBelt(comm.SiteBuddy, comm.KindBuddy, c, d); verr != nil {
		return verr
	}
	g, sh := w.beltBody(d), w.shadow
	if len(g) != len(sh.w) {
		return fmt.Errorf("pipeline: buddy gradient size mismatch %d != %d", len(g), len(sh.w))
	}
	sh.stash(w.shadowIters)
	if !w.lastSkip {
		sh.opt.StepScaled(sh.w, g, stepFactor(w.lastInv, w.lastScale, g))
	}
	w.shadowIters++
	return nil
}

// BuddyChunk reports which chunk this rank shadows (ok=false when buddy
// replication is off).
func (w *WeiPipe) BuddyChunk() (int, bool) {
	return (w.ownChunk + 1) % w.t.Size(), w.shadow != nil
}

// CompletedStepPhases reports how many iteration step phases this rank has
// fully committed — the lower of the owned chunk's and the shadow's
// counters, which is what bounds the repair cut this rank can serve.
func (w *WeiPipe) CompletedStepPhases() int {
	if w.shadow != nil {
		return min(w.shadowIters, w.ownerIters)
	}
	return w.ownerIters
}
