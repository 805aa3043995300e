package optim

import (
	"math"
	"testing"
)

func TestSpikeDetectorFlagsOutlier(t *testing.T) {
	d := NewSpikeDetector(8)
	// Steady gradient norms around 1.0 (sumSq ~ 1.0).
	for i := 0; i < 8; i++ {
		if d.Observe(1.0 + 0.01*float64(i%3)) {
			t.Fatalf("steady step %d flagged", i)
		}
	}
	if !d.Observe(400.0) { // 20× the typical norm
		t.Fatal("20x norm excursion not flagged")
	}
	if d.Spikes() != 1 {
		t.Fatalf("Spikes() = %d, want 1", d.Spikes())
	}
}

// TestSpikeDetectorFlagsOverConstantWindow: a window of identical norms has
// MAD 0; the relative floor on σ must still let a real excursion through.
func TestSpikeDetectorFlagsOverConstantWindow(t *testing.T) {
	d := NewSpikeDetector(8)
	for i := 0; i < 8; i++ {
		d.Observe(1.0)
	}
	if !d.Observe(1e6) {
		t.Fatal("excursion over a constant window not flagged")
	}
}

// TestSpikeDetectorWindowNotContaminated: a flagged norm must not enter the
// window, so a sustained corruption keeps being flagged instead of
// normalising itself after window-many steps.
func TestSpikeDetectorWindowNotContaminated(t *testing.T) {
	d := NewSpikeDetector(6)
	for i := 0; i < 6; i++ {
		d.Observe(1.0)
	}
	for i := 0; i < 20; i++ {
		if !d.Observe(500.0) {
			t.Fatalf("sustained excursion step %d absorbed into the window", i)
		}
	}
	if d.Spikes() != 20 {
		t.Fatalf("Spikes() = %d, want 20", d.Spikes())
	}
}

// TestSpikeDetectorTracksDrift: a slow legitimate trend (warm-up decay)
// must not trip the detector — the windowed median follows it.
func TestSpikeDetectorTracksDrift(t *testing.T) {
	d := NewSpikeDetector(8)
	norm := 10.0
	for i := 0; i < 200; i++ {
		if d.Observe(norm * norm) {
			t.Fatalf("smooth decay flagged at step %d (norm %g)", i, norm)
		}
		norm *= 0.98
	}
}

func TestSpikeDetectorNonFinitePassThrough(t *testing.T) {
	d := NewSpikeDetector(4)
	for i := 0; i < 4; i++ {
		d.Observe(1.0)
	}
	// NaN is the non-finite guard's jurisdiction: not a spike, not
	// admitted to the window.
	if d.Observe(math.NaN()) {
		t.Fatal("NaN claimed by spike detector")
	}
	// Inf, by contrast, is a magnitude anomaly (the float32 scalar
	// all-reduce overflows on huge finite gradients): flagged.
	if !d.Observe(math.Inf(1)) {
		t.Fatal("overflowed sum not flagged")
	}
	if d.Spikes() != 1 {
		t.Fatalf("Spikes() = %d, want 1", d.Spikes())
	}
	if d.Observe(1.0) {
		t.Fatal("window contaminated by non-finite values")
	}
}

func TestSpikeDetectorWarmup(t *testing.T) {
	d := NewSpikeDetector(8)
	// With fewer than 3 admitted norms there is no robust scale estimate;
	// nothing may be flagged.
	if d.Observe(1e9) {
		t.Fatal("first observation flagged")
	}
	if d.Observe(1e-9) {
		t.Fatal("second observation flagged")
	}
}

// A finite norm gets a verdict only once the window is full: while it
// fills, early drift would read as a spike against a tiny MAD. +Inf is
// flagged at once.
func TestSpikeDetectorWaitsForFullWindow(t *testing.T) {
	const window = 8
	steady := func(d *SpikeDetector, k int) {
		for i := 0; i < k; i++ {
			d.Observe(1 + 0.01*float64(i))
		}
	}
	filling := NewSpikeDetector(window)
	if !filling.Observe(math.Inf(1)) {
		t.Fatal("overflowed sum not flagged on an empty window")
	}
	steady(filling, window-1)
	if filling.Observe(1e12) {
		t.Fatalf("outlier flagged over %d of %d norms", window-1, window)
	}
	full := NewSpikeDetector(window)
	steady(full, window)
	if !full.Observe(1e12) {
		t.Fatal("outlier not flagged over a full window")
	}
}

func TestSpikeDetectorExportRestoreRoundTrip(t *testing.T) {
	d := NewSpikeDetector(6)
	for i := 0; i < 10; i++ {
		d.Observe(1.0 + float64(i)*0.05)
	}
	d.Observe(900.0) // one spike
	st := d.ExportState(false)

	fresh := NewSpikeDetector(6)
	fresh.RestoreState(st)
	if fresh.Spikes() != d.Spikes() {
		t.Fatalf("restored Spikes() = %d, want %d", fresh.Spikes(), d.Spikes())
	}
	// Both must agree on every future verdict.
	for i := 0; i < 30; i++ {
		v := 1.0 + float64(i%5)*0.02
		if i%7 == 0 {
			v = 1e4
		}
		if s1, s2 := d.Observe(v), fresh.Observe(v); s1 != s2 {
			t.Fatalf("step %d: verdicts diverge after restore: %v vs %v", i, s1, s2)
		}
	}
}

// TestSpikeDetectorRollbackExport: ExportState(rollback=true) must return
// the state as it was before the most recent Observe — the one-deep
// rollback the repair cut needs.
func TestSpikeDetectorRollbackExport(t *testing.T) {
	d := NewSpikeDetector(5)
	for i := 0; i < 9; i++ {
		d.Observe(2.0)
	}
	pre := d.ExportState(false)
	d.Observe(3.0)
	back := d.ExportState(true)
	if len(pre) != len(back) {
		t.Fatalf("rollback length %d, want %d", len(back), len(pre))
	}
	for i := range pre {
		if pre[i] != back[i] {
			t.Fatalf("rollback state diverges at %d: %v vs %v", i, back[i], pre[i])
		}
	}
}

func TestSpikeDetectorObserveAllocs(t *testing.T) {
	d := NewSpikeDetector(16)
	for i := 0; i < 16; i++ {
		d.Observe(1.0)
	}
	allocs := testing.AllocsPerRun(100, func() { d.Observe(1.0) })
	if allocs > 0 {
		t.Fatalf("Observe allocates %.1f per call in steady state", allocs)
	}
}
