package pipeline

import (
	"fmt"

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
	stepRule
}

// A piece is one contiguous range of the flat parameter vector a rank owns:
// its fp32 master weights w, which start at off, and their optimizer.
type piece struct {
	off int
	w   []float32
	opt *optim.AdamW
}

// ownRange makes modules [lo, hi) one piece: their initial weights
// (model.InitChunk) in one flat vector the modules are views of for good, so
// a step updates them in place.
func (o *owned) ownRange(lo, hi int, adam optim.AdamWConfig) {
	w := make([]float32, o.mdl.ChunkSize(lo, hi))
	o.mdl.InitChunk(lo, hi, w)
	o.mdl.BindChunk(lo, hi, w)
	o.pieces = append(o.pieces, piece{off: o.mdl.ChunkSize(0, lo), w: w, opt: optim.NewAdamW(len(w), adam)})
}

// bindGrads returns gradient sets for modules [lo, hi) of mdl, indexed by
// global module index, and the one flat vector, in wire order, they are
// views of for good: W passes accumulate straight into the step's operand.
func bindGrads(mdl *model.Model, lo, hi int) (flat []float32, grads []*nn.ParamSet) {
	flat = make([]float32, mdl.ChunkSize(lo, hi))
	grads = make([]*nn.ParamSet, len(mdl.Modules))
	for i, off := lo, 0; i < hi; i++ {
		g := mdl.Modules[i].Params().NewUnbound()
		g.Bind(flat[off : off+g.Size()])
		off += g.Size()
		grads[i] = g
	}
	return flat, grads
}

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

// LoadWeights implements Trainer.
func (o *owned) LoadWeights(full []float32) {
	for _, p := range o.pieces {
		copy(p.w, full[p.off:])
	}
}

// SetLR implements Trainer.
func (o *owned) SetLR(lr float64) {
	for _, p := range o.pieces {
		p.opt.SetLR(lr)
	}
}

// ExportOptimState implements Recoverable: the pieces' moments back to back.
// Every piece steps together, so they share one step count.
func (o *owned) ExportOptimState() (int64, []float32, []float32) {
	n := 0
	for _, p := range o.pieces {
		n += len(p.w)
	}
	m, v := make([]float32, n), make([]float32, n)
	var step int
	off := 0
	for _, p := range o.pieces {
		step = p.opt.CopyStateInto(m[off:off+len(p.w)], v[off:off+len(p.w)])
		off += len(p.w)
	}
	return int64(step), m, v
}

// RestoreOptimState implements Recoverable.
func (o *owned) RestoreOptimState(step int64, m, v []float32) error {
	for _, p := range o.pieces {
		n := min(len(p.w), len(m), len(v))
		if err := p.opt.LoadState(int(step), m[:n], v[:n]); err != nil {
			return err
		}
		m, v = m[n:], v[n:]
	}
	if len(m)+len(v) != 0 {
		return fmt.Errorf("pipeline: optimizer state outruns the owned weights by %d params", len(m))
	}
	return nil
}

// SetIteration implements Recoverable. The trainers whose counters only
// salt tags start every rank of a fresh incarnation alike.
func (o *owned) SetIteration(int) {}

// decideStep is the first half of a step: it averages grads, the summed
// gradient of every piece in piece order, over n microbatches and lets the
// step rule decide on their Σg². reduce turns this rank's partial Σg² into
// the global one (nil: the gradient is replicated, so the local Σg² is
// global); it runs only when the rule reads Σg².
func (o *owned) decideStep(n int, reduce func(local float64) (float64, error), grads ...[]float32) (scale float32, skip bool, err error) {
	inv := gradFactor(n)
	var sumSq float64
	for _, g := range grads {
		tensor.ScaleF32(g, g, inv)
	}
	if o.needSumSq() {
		for _, g := range grads {
			sumSq += sumSquares(g)
		}
		if reduce != nil {
			if sumSq, err = reduce(sumSq); err != nil {
				return 0, false, err
			}
		}
	}
	scale, skip = o.decide(sumSq, grads...)
	return scale, skip, nil
}

// applyStep is the second half: every piece steps on its gradient.
func (o *owned) applyStep(grads ...[]float32) {
	for i, p := range o.pieces {
		p.opt.Step(p.w, grads[i])
	}
}

// step averages, decides and, unless the rule skips, steps every piece.
func (o *owned) step(n int, reduce func(local float64) (float64, error), grads ...[]float32) error {
	_, skip, err := o.decideStep(n, reduce, grads...)
	if err == nil && !skip {
		o.applyStep(grads...)
	}
	return err
}
