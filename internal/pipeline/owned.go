package pipeline

import (
	"fmt"

	"weipipe/internal/checkpoint"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
)

// owned is what a rank owns of the model, written once for every trainer.
// In the paper's update pass (§4.2.1) each worker keeps the fp32 master
// weights and the optimizer state of the part it owns and steps that part
// once its gradient is summed. Every strategy owns a different partition of
// the one flat parameter vector — all of it (serial, DP), a stage (PP), a
// chunk (WeiPipe) or a shard of every module (FSDP) — and holds it as
// pieces. The model is shells (model.BuildShells): a module holds weights
// only while bound to a piece or, for one pass, to a belt or gather buffer.
// The step rule decides every step; owned implements the Trainer methods
// that read or write the owned state and the guard's counters.
type owned struct {
	mdl    *model.Model
	pieces []piece
	// shadow, under buddy replication (buddy.go), is the successor chunk's
	// replica: one more piece, at that chunk's offset. It is not among the
	// pieces, so it is never exported as held; a restore loads it with them.
	shadow *piece
	stepRule
}

// A piece is one contiguous range of the flat parameter vector a rank
// holds: its fp32 master weights w, which start at off, and their
// optimizer. Every copy of trainer state is a piece. Armed, it also keeps
// rb, a one-deep pre-step rollback (buddy replication), and sums, the
// checksums of w, m and v that the resident integrity guard compares
// against (Options.Integrity).
type piece struct {
	off  int
	w    []float32
	opt  *optim.AdamW
	rb   *rollback
	sums *[3]uint32
}

// A rollback is a piece as it stood before its latest step, which it
// records as iters completed step phases; valid is false until the first
// stash and after a load.
type rollback struct {
	piece
	iters int
	valid bool
}

// newPiece builds modules [lo, hi) as a piece: their initial weights
// (model.InitChunk) and a fresh optimizer.
func (o *owned) newPiece(lo, hi int, adam optim.AdamWConfig) *piece {
	w := make([]float32, o.mdl.ChunkSize(lo, hi))
	o.mdl.InitChunk(lo, hi, w)
	return &piece{off: o.mdl.ChunkSize(0, lo), w: w, opt: optim.NewAdamW(len(w), adam)}
}

// ownRange makes modules [lo, hi) one owned piece, which the modules are
// views of for good, so a step updates them in place.
func (o *owned) ownRange(lo, hi int, adam optim.AdamWConfig) {
	p := o.newPiece(lo, hi, adam)
	o.mdl.BindChunk(lo, hi, p.w)
	o.pieces = append(o.pieces, *p)
}

// arm gives the piece a rollback.
func (p *piece) arm() {
	p.rb = &rollback{piece: piece{off: p.off, w: make([]float32, len(p.w)),
		opt: optim.NewAdamW(len(p.w), optim.AdamWConfig{})}}
}

// stash copies the piece into its rollback (if armed) before the step that
// follows iters completed step phases.
func (p *piece) stash(iters int) {
	if p.rb == nil {
		return
	}
	copy(p.rb.w, p.w)
	p.rb.opt.CopyFrom(p.opt)
	p.rb.iters, p.rb.valid = iters, true
}

// at resolves the piece as of completed step phase atIter, iters being
// complete: the live piece, or its rollback when the piece has stepped once
// past atIter. Either is a view, not a copy.
func (p *piece) at(atIter, iters int) (*piece, error) {
	rb := p.rb != nil && p.rb.valid
	switch {
	case iters == atIter:
		return p, nil
	case iters == atIter+1 && rb && p.rb.iters == atIter:
		return &p.rb.piece, nil
	}
	return nil, fmt.Errorf("pipeline: state at iteration %d unavailable (completed %d, rollback valid=%v)",
		atIter, iters, rb)
}

// load copies the piece's range of snap back into it: the weights and, in
// a full-state snapshot, the moments at the snapshot's optimizer step. The
// live state is replaced, so the rollback no longer describes it.
func (p *piece) load(snap *checkpoint.Snapshot) error {
	lo, hi := p.off, p.off+len(p.w)
	copy(p.w, snap.Weights[lo:hi])
	if fullState(snap) {
		step := int(snapshotOptStep(snap))
		if err := p.opt.LoadState(step, snap.Sections["adam.m"][lo:hi], snap.Sections["adam.v"][lo:hi]); err != nil {
			return err
		}
	}
	if p.rb != nil {
		p.rb.valid = false
	}
	p.reseal()
	return nil
}

// bindGrads returns gradient sets for modules [lo, hi) of mdl, indexed by
// global module index, and the one flat vector, in wire order, they are
// views of for good: W passes accumulate straight into the step's operand.
// Each iteration starts by binding them fresh again (bindSets), so its
// first W pass into each overwrites the last iteration's sum in place of a
// clear.
func bindGrads(mdl *model.Model, lo, hi int) (flat []float32, grads []*nn.ParamSet) {
	flat = make([]float32, mdl.ChunkSize(lo, hi))
	grads = make([]*nn.ParamSet, len(mdl.Modules))
	for i := lo; i < hi; i++ {
		grads[i] = mdl.Modules[i].Params().NewUnbound()
	}
	bindSets(flat, grads[lo:hi], true)
	return flat, grads
}

// bindSets binds sets, in order, to consecutive slices of flat: fresh
// (nn.ParamSet.BindFresh), so each set's first W pass stores into flat
// instead of adding to what it holds, or plain, so every pass accumulates.
func bindSets(flat []float32, sets []*nn.ParamSet, fresh bool) {
	off := 0
	for _, g := range sets {
		n := g.Size()
		if fresh {
			g.BindFresh(flat[off : off+n])
		} else {
			g.Bind(flat[off : off+n])
		}
		off += n
	}
}

// ownedState is how the capture and restore helpers reach a trainer's
// pieces: every trainer embeds one owned.
func (o *owned) ownedState() *owned { return o }

// Model implements Trainer.
func (o *owned) Model() *model.Model { return o.mdl }

// ExportWeights implements Trainer: every piece, at its place.
func (o *owned) ExportWeights(full []float32) [][2]int {
	held := make([][2]int, len(o.pieces))
	for i, p := range o.pieces {
		copy(full[p.off:p.off+len(p.w)], p.w)
		held[i] = [2]int{p.off, p.off + len(p.w)}
	}
	return held
}

// SetLR implements Trainer.
func (o *owned) SetLR(lr float64) {
	for _, p := range o.pieces {
		p.opt.SetLR(lr)
	}
}

// SetIteration implements Recoverable. The trainers whose counters only
// salt tags start every rank of a fresh incarnation alike.
func (o *owned) SetIteration(int) {}

// decideStep is the first half of a step: the step rule decides on the
// Σg² of grads, the summed gradient of every piece in piece order averaged
// over n microbatches. reduce turns this rank's partial Σg² into the global
// one (nil: the gradient is replicated, so the local Σg² is global); it
// runs only when the rule reads Σg², which is taken from the averaged values
// without writing them. It returns the rule's clip scale (1: none) and gs,
// the factor applyStep loads every gradient with (stepFactor).
func (o *owned) decideStep(n int, reduce func(local float64) (float64, error), grads ...[]float32) (scale, gs float32, skip bool, err error) {
	inv := gradFactor(n)
	var sumSq float64
	if o.needSumSq() {
		for _, g := range grads {
			sumSq += sumSquaresScaled(g, inv)
		}
		if reduce != nil {
			if sumSq, err = reduce(sumSq); err != nil {
				return 0, 0, false, err
			}
		}
	}
	scale, skip = o.decide(sumSq)
	if skip {
		return scale, inv, true, nil
	}
	return scale, stepFactor(inv, scale, grads...), false, nil
}

// stepFactor returns the factor a step loads grads with so that it reads
// the bits of averaging by inv and clipping by scale, each a ScaleF32 pass:
// inv alone, or, when the rule clipped, scale, with grads averaged in place
// first.
func stepFactor(inv, scale float32, grads ...[]float32) float32 {
	if scale == 1 {
		return inv
	}
	for _, g := range grads {
		tensor.ScaleF32(g, g, inv)
	}
	return scale
}

// applyStep is the second half: every piece steps on its gradient, loaded
// times gs.
func (o *owned) applyStep(gs float32, grads ...[]float32) {
	for i, p := range o.pieces {
		p.opt.StepScaled(p.w, grads[i], gs)
	}
}

// step averages, decides and, unless the rule skips, steps every piece.
func (o *owned) step(n int, reduce func(local float64) (float64, error), grads ...[]float32) error {
	_, gs, skip, err := o.decideStep(n, reduce, grads...)
	if err == nil && !skip {
		o.applyStep(gs, grads...)
	}
	return err
}
