package cost

import (
	"weipipe/internal/cluster"
)

// PhaseTotals summarises a measured runtime trace at the granularity the
// analytic model reasons in: per-iteration wall time and per-rank-iteration
// compute/exposed-communication sums, in seconds. It is the bridge type
// between internal/trace's nanosecond IterMetrics and this package's
// second-denominated cost model.
type PhaseTotals struct {
	// StepSec is the mean per-iteration step time (max across ranks — an
	// iteration is as slow as its slowest rank).
	StepSec float64
	// FSec/BSec/WSec are mean per rank-iteration compute sums by pass.
	FSec float64
	BSec float64
	WSec float64
	// OptSec is the mean per rank-iteration optimizer-phase time.
	OptSec float64
	// ExposedSec is the mean per rank-iteration exposed-communication time
	// (the compute thread's stall spans) — the measured bubble.
	ExposedSec float64
	Iters      int
	Ranks      int
}

// ComputeSec returns the per rank-iteration compute total.
func (p PhaseTotals) ComputeSec() float64 { return p.FSec + p.BSec + p.WSec + p.OptSec }

// PerRankFwdFLOPs returns the forward FLOPs one rank executes per
// iteration: its N/P microbatches through all L layers plus the LM head.
// (In weight-passing schedules the weights travel to the data, so every
// rank runs the full depth for its own microbatches — the same count an
// activation-passing stage performs across all microbatches for its L/P
// layers.)
func (w Workload) PerRankFwdFLOPs() float64 {
	mb := float64(w.N) / float64(w.P)
	return mb * (float64(w.L)*w.LayerFwdFLOPs() + w.HeadFwdFLOPs())
}

// Calibration is a measurement-grounded parameter suggestion for the
// analytic model: what the GPU actually sustained and how much link time
// really stayed exposed, expressed in the knobs Workload.Times and
// schedule.Spec consume.
type Calibration struct {
	// EffectiveFLOPS is the achieved forward throughput implied by the
	// measured F time (0 when the trace carried no F spans).
	EffectiveFLOPS float64
	// SuggestedMFU is EffectiveFLOPS over the GPU's peak, clamped to
	// (0, 1] — drop it into cluster.GPUSpec.MFU to make Times() predict the
	// measured compute durations.
	SuggestedMFU float64
	// SuggestedLinkScale is the measured exposed communication over the
	// simulator's predicted exposed link time, clamped to [0.01, 1] — drop
	// it into schedule.Spec.LinkScale.
	SuggestedLinkScale float64
}

// Calibrate fits the analytic model to a measured run. predictedExposedSec
// is the simulator's per rank-iteration exposed link time for the same
// (strategy, workload, topology); pass 0 when unknown and the link scale
// suggestion stays at 1.
func Calibrate(w Workload, gpu cluster.GPUSpec, m PhaseTotals, predictedExposedSec float64) Calibration {
	w = w.WithDefaults()
	c := Calibration{SuggestedMFU: gpu.MFU, SuggestedLinkScale: 1}
	if m.FSec > 0 {
		c.EffectiveFLOPS = w.PerRankFwdFLOPs() / m.FSec
		if gpu.PeakFLOPS > 0 {
			mfu := c.EffectiveFLOPS / gpu.PeakFLOPS
			if mfu > 1 {
				mfu = 1
			}
			if mfu > 0 {
				c.SuggestedMFU = mfu
			}
		}
	}
	if predictedExposedSec > 0 {
		const eps = 0.01
		s := m.ExposedSec / predictedExposedSec
		switch {
		case s < eps:
			s = eps
		case s > 1:
			s = 1
		}
		c.SuggestedLinkScale = s
	}
	return c
}
