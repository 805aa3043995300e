package pipeline

import (
	"fmt"
	"math"
)

// Spike-detector snapshot plumbing. The detector's window is float64 (its
// verdicts hinge on the bit-identical globally-agreed Σg²), while checkpoint
// sections carry float32 — so the state rides in a section as float64 bit
// patterns split across float32 word pairs. Every copy along the snapshot
// paths is a bitwise move (no float arithmetic), and the checkpoint codec
// round-trips raw bits, so a restored detector is exactly the saved one and
// a resumed run's spike verdicts stay bit-identical to an uninterrupted run.

// spikeSection names the snapshot section carrying the detector state.
const spikeSection = "spike.state"

// packF64Bits encodes float64 values as (lo, hi) float32 bit-pattern pairs.
func packF64Bits(xs []float64) []float32 {
	out := make([]float32, 2*len(xs))
	for i, x := range xs {
		b := math.Float64bits(x)
		out[2*i] = math.Float32frombits(uint32(b))
		out[2*i+1] = math.Float32frombits(uint32(b >> 32))
	}
	return out
}

// unpackF64Bits reverses packF64Bits.
func unpackF64Bits(xs []float32) []float64 {
	out := make([]float64, len(xs)/2)
	for i := range out {
		lo := uint64(math.Float32bits(xs[2*i]))
		hi := uint64(math.Float32bits(xs[2*i+1]))
		out[i] = math.Float64frombits(hi<<32 | lo)
	}
	return out
}

// exportSpikeAt returns the packed spike-detector state as of completed
// iteration atIter, bridging one step past the cut with the detector's
// one-deep rollback — the same live/rollback resolution exportAt applies to
// the trainer state. nil when no detector is armed.
func (w *WeiPipe) exportSpikeAt(atIter int) ([]float32, error) {
	if w.spike == nil {
		return nil, nil
	}
	switch {
	case w.ownerIters == atIter:
		return packF64Bits(w.spike.ExportState(false)), nil
	case w.ownerIters == atIter+1:
		return packF64Bits(w.spike.ExportState(true)), nil
	}
	return nil, fmt.Errorf("pipeline: spike state at iteration %d unavailable (completed %d)",
		atIter, w.ownerIters)
}

// restoreSpikeState loads a packed detector state (nil or empty resets the
// window — the right behaviour for snapshots that predate the detector).
func (w *WeiPipe) restoreSpikeState(st []float32) {
	if w.spike == nil {
		return
	}
	w.spike.RestoreState(unpackF64Bits(st))
}

// SpikeCounter is implemented by trainers running the grad-norm spike
// detector (Options.SpikeWindow).
type SpikeCounter interface {
	// SpikeSteps reports how many steps the detector flagged as anomalous.
	SpikeSteps() int
}

// SpikeSteps implements SpikeCounter for WeiPipe.
func (w *WeiPipe) SpikeSteps() int {
	if w.spike == nil {
		return 0
	}
	return w.spike.Spikes()
}

// SpikeSteps implements SpikeCounter for the hybrid trainer.
func (h *WeiPipeDP) SpikeSteps() int { return h.inner.SpikeSteps() }
