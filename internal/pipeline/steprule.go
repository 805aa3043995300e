package pipeline

import (
	"fmt"
	"math"

	"weipipe/internal/optim"
	"weipipe/internal/trace"
)

// stepRule is the optimizer step decision, written once: the update pass
// every rank applies identically once its gradient is reduced and averaged
// (the paper's §4.2.1). It clips to Options.ClipNorm and, under
// Options.Guard, skips a step whose Σg² is non-finite or spikes. It reads
// only the globally agreed Σg², so every rank, and every buddy shadow
// replaying a step, reaches the identical verdict; how Σg² is reduced is
// the one part each trainer keeps. Every trainer's owned state embeds one,
// and so implements SkippedSteps and SpikeSteps.
type stepRule struct {
	clip float64
	// spike is the guard's grad-norm detector; nil when the guard is off.
	spike   *optim.SpikeDetector
	skipped int
	// steps counts decisions: the iteration the next one belongs to.
	steps  int
	tracer *trace.Tracer
}

func newStepRule(opts Options, rank int) stepRule {
	r := stepRule{clip: opts.ClipNorm, tracer: opts.Trace.Rank(rank)}
	if opts.Guard {
		r.spike = optim.NewSpikeDetector(optim.SpikeWindow)
	}
	return r
}

// needSumSq reports whether decide reads Σg². When it does not, a trainer
// skips the reduction, which is a sync point before every step.
func (r *stepRule) needSumSq() bool { return r.clip > 0 || r.spike != nil }

// decide takes the globally agreed Σg² of the averaged gradient and
// reports whether to skip the step. Otherwise it returns the scale that
// clips the gradient to the clip norm, 1 when it is within it; the caller
// applies it (stepFactor).
func (r *stepRule) decide(sumSq float64) (scale float32, skip bool) {
	iter := r.steps
	r.steps++
	if r.spike != nil {
		// The detector flags an infinite Σg² as a spike; NaN is not one.
		spike := r.spike.Observe(sumSq)
		if spike {
			r.tracer.Instant(trace.CodeSpike, int64(iter), 1)
		}
		if spike || math.IsNaN(sumSq) {
			r.skipped++
			return 1, true
		}
	}
	norm := math.Sqrt(sumSq)
	if r.clip <= 0 || norm <= r.clip {
		return 1, false
	}
	return float32(r.clip / norm), false
}

// SkipCounter reports how many steps the guard skipped; every Trainer is
// one. The decisions are global, so every rank counts the same.
type SkipCounter interface{ SkippedSteps() int }

// SkippedSteps implements SkipCounter.
func (r *stepRule) SkippedSteps() int { return r.skipped }

// SpikeSteps implements Trainer: how many of the skipped steps spiked.
func (r *stepRule) SpikeSteps() int {
	if r.spike == nil {
		return 0
	}
	return r.spike.Spikes()
}

// spikeSection names the snapshot section carrying the detector state: the
// guard's window rides in every full-state snapshot, so a resumed guarded
// run stays bit-identical to an uninterrupted one. The window is float64 and sections carry float32, so it rides as float64 bit
// patterns split across float32 word pairs; every copy along the snapshot
// paths is a bitwise move, so a restored detector is exactly the saved one.
const spikeSection = "spike.state"

// spikeStateAt returns the packed detector state as of completed iteration
// atIter: the live window, or, for a rank one step past a repair cut, the
// detector's one-deep rollback — the resolution piece.at applies to the
// trainer state. nil when the guard is off.
func (r *stepRule) spikeStateAt(atIter int) ([]float32, error) {
	if r.spike == nil {
		return nil, nil
	}
	if r.steps != atIter && r.steps != atIter+1 {
		return nil, fmt.Errorf("pipeline: spike state at iteration %d unavailable (completed %d)",
			atIter, r.steps)
	}
	st := r.spike.ExportState(r.steps == atIter+1)
	out := make([]float32, 2*len(st))
	for i, x := range st {
		b := math.Float64bits(x)
		out[2*i], out[2*i+1] = math.Float32frombits(uint32(b)), math.Float32frombits(uint32(b>>32))
	}
	return out, nil
}

// restoreGuard realigns the rule with a snapshot of completed iteration
// iter and loads its packed detector state (nil or empty resets the window:
// the right behaviour for snapshots that predate the detector).
func (r *stepRule) restoreGuard(st []float32, iter int) {
	r.steps = iter
	if r.spike == nil {
		return
	}
	window := make([]float64, len(st)/2)
	for i := range window {
		lo, hi := uint64(math.Float32bits(st[2*i])), uint64(math.Float32bits(st[2*i+1]))
		window[i] = math.Float64frombits(hi<<32 | lo)
	}
	r.spike.RestoreState(window)
}
