package optim

import (
	"math"
	"sort"
)

// SpikeThreshold is the spike verdict boundary in robust standard
// deviations: a deliberately loose one, since legitimate training produces
// heavy-tailed norm sequences.
const SpikeThreshold = 6

// SpikeWindow is how many accepted norms the training step guard's
// detector remembers.
const SpikeWindow = 8

// SpikeDetector is a windowed gradient-norm anomaly detector: it keeps the
// last Window accepted global grad norms and flags a new norm as a spike
// when it sits more than SpikeThreshold robust standard deviations above the
// window median, using the median absolute deviation (MAD) as the scale
// estimate (σ ≈ 1.4826·MAD for Gaussian noise). Median+MAD survives the
// contamination that defeats mean+stddev: a handful of earlier spikes in
// the window barely move either statistic.
//
// It extends the non-finite guard to *finite* anomalies — a loss blow-up,
// a corrupt batch, or a bit flip that landed in low-order gradient bits
// below the checksum layers' detection floor. Verdicts are driven by the
// globally all-reduced Σg², so every rank (and every buddy shadow replay)
// builds its own detector and the copies reach the identical decision, in
// lock-step, without extra messages.
type SpikeDetector struct {
	// Window is the number of accepted norms the detector remembers.
	Window int

	norms  []float64 // ring of accepted norms, oldest first
	spikes int

	// One-deep rollback for the elastic repair cut: state before the most
	// recent Observe, so a rank that stepped past the cut can export the
	// detector as of the cut (mirrors the trainer's rb* stash).
	prevNorms  []float64
	prevSpikes int

	scratch []float64
	devs    []float64
}

// NewSpikeDetector builds a detector. window must be ≥ 3 to make the
// median meaningful.
func NewSpikeDetector(window int) *SpikeDetector {
	if window < 3 {
		window = 3
	}
	return &SpikeDetector{Window: window}
}

// median returns the median of xs using the detector's scratch buffer.
func (d *SpikeDetector) median(xs []float64) float64 {
	if cap(d.scratch) < len(xs) {
		d.scratch = make([]float64, len(xs))
	}
	s := d.scratch[:len(xs)]
	copy(s, xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Observe feeds the globally agreed Σg² of one step and reports whether it
// is a spike. NaN sums are the non-finite guard's territory and pass
// through untouched (no spike, not recorded); an *infinite* sum, however,
// is a magnitude anomaly by definition — the scalar all-reduce carries Σg²
// as float32, so gradients past ~1e19 in norm arrive as +Inf — and is
// flagged even before the window has a baseline. A finite norm gets a
// verdict only once the window is full: over a few norms the MAD is
// small, and ordinary early-training drift would read as a spike. A
// flagged norm is not admitted into the window, so one anomaly cannot drag
// the baseline toward itself.
func (d *SpikeDetector) Observe(sumSq float64) bool {
	d.prevNorms = append(d.prevNorms[:0], d.norms...)
	d.prevSpikes = d.spikes
	if math.IsNaN(sumSq) {
		return false
	}
	if math.IsInf(sumSq, 0) {
		d.spikes++
		return true
	}
	norm := math.Sqrt(sumSq)
	if len(d.norms) >= d.Window {
		med := d.median(d.norms)
		if cap(d.devs) < len(d.norms) {
			d.devs = make([]float64, len(d.norms))
		}
		devs := d.devs[:len(d.norms)]
		for i, x := range d.norms {
			devs[i] = math.Abs(x - med)
		}
		mad := d.median(devs)
		// Robust σ; floor at a relative epsilon of the median so a
		// constant-norm window (MAD = 0) doesn't flag every fluctuation.
		sigma := 1.4826 * mad
		if floor := 1e-12 * math.Abs(med); sigma < floor {
			sigma = floor
		}
		if sigma > 0 && norm-med > SpikeThreshold*sigma {
			d.spikes++
			return true
		}
	}
	d.norms = append(d.norms, norm)
	if len(d.norms) > d.Window {
		d.norms = d.norms[1:]
	}
	return false
}

// Spikes returns the number of spikes detected so far.
func (d *SpikeDetector) Spikes() int { return d.spikes }

// ExportState serializes the detector (spike count, then window contents,
// oldest first) for checkpoint/harvest snapshots. rollback selects the
// pre-Observe state — the repair-cut export for a rank that already
// consumed the in-flight iteration's norm.
func (d *SpikeDetector) ExportState(rollback bool) []float64 {
	norms, spikes := d.norms, d.spikes
	if rollback {
		norms, spikes = d.prevNorms, d.prevSpikes
	}
	out := make([]float64, 0, len(norms)+1)
	out = append(out, float64(spikes))
	return append(out, norms...)
}

// RestoreState loads a serialized detector state.
func (d *SpikeDetector) RestoreState(st []float64) {
	if len(st) == 0 {
		d.norms, d.spikes = d.norms[:0], 0
		return
	}
	d.spikes = int(st[0])
	d.norms = append(d.norms[:0], st[1:]...)
	d.prevNorms = append(d.prevNorms[:0], d.norms...)
	d.prevSpikes = d.spikes
}
