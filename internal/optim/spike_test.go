package optim

import (
	"math"
	"testing"
)

func TestSpikeDetectorFlagsOutlier(t *testing.T) {
	d := NewSpikeDetector(8, false)
	// Steady gradient norms around 1.0 (sumSq ~ 1.0).
	for i := 0; i < 8; i++ {
		spike, skip := d.Observe(1.0 + 0.01*float64(i%3))
		if spike || skip {
			t.Fatalf("steady step %d flagged", i)
		}
	}
	spike, skip := d.Observe(400.0) // 20× the typical norm
	if !spike {
		t.Fatal("20x norm excursion not flagged")
	}
	if skip {
		t.Fatal("skip=false detector requested a skip")
	}
	if d.Spikes() != 1 {
		t.Fatalf("Spikes() = %d, want 1", d.Spikes())
	}
}

func TestSpikeDetectorSkipMode(t *testing.T) {
	d := NewSpikeDetector(8, true)
	for i := 0; i < 8; i++ {
		d.Observe(1.0)
	}
	spike, skip := d.Observe(1e6)
	if !spike || !skip {
		t.Fatalf("skip-mode spike: spike=%v skip=%v, want true,true", spike, skip)
	}
}

// TestSpikeDetectorWindowNotContaminated: a flagged norm must not enter the
// window, so a sustained corruption keeps being flagged instead of
// normalising itself after window-many steps.
func TestSpikeDetectorWindowNotContaminated(t *testing.T) {
	d := NewSpikeDetector(6, false)
	for i := 0; i < 6; i++ {
		d.Observe(1.0)
	}
	for i := 0; i < 20; i++ {
		if spike, _ := d.Observe(500.0); !spike {
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
	d := NewSpikeDetector(8, false)
	norm := 10.0
	for i := 0; i < 200; i++ {
		if spike, _ := d.Observe(norm * norm); spike {
			t.Fatalf("smooth decay flagged at step %d (norm %g)", i, norm)
		}
		norm *= 0.98
	}
}

func TestSpikeDetectorNonFinitePassThrough(t *testing.T) {
	d := NewSpikeDetector(4, true)
	for i := 0; i < 4; i++ {
		d.Observe(1.0)
	}
	// NaN is the existing non-finite guard's jurisdiction: not a spike, no
	// skip request, not admitted to the window.
	if spike, skip := d.Observe(math.NaN()); spike || skip {
		t.Fatal("NaN claimed by spike detector")
	}
	// Inf, by contrast, is a magnitude anomaly (the float32 scalar
	// all-reduce overflows on huge finite gradients): flagged and skipped.
	if spike, skip := d.Observe(math.Inf(1)); !spike || !skip {
		t.Fatal("overflowed sum not flagged")
	}
	if d.Spikes() != 1 {
		t.Fatalf("Spikes() = %d, want 1", d.Spikes())
	}
	if spike, _ := d.Observe(1.0); spike {
		t.Fatal("window contaminated by non-finite values")
	}
}

func TestSpikeDetectorWarmup(t *testing.T) {
	d := NewSpikeDetector(8, false)
	// With fewer than 3 admitted norms there is no robust scale estimate;
	// nothing may be flagged.
	if spike, _ := d.Observe(1e9); spike {
		t.Fatal("first observation flagged")
	}
	if spike, _ := d.Observe(1e-9); spike {
		t.Fatal("second observation flagged")
	}
}

func TestSpikeDetectorExportRestoreRoundTrip(t *testing.T) {
	d := NewSpikeDetector(6, true)
	for i := 0; i < 10; i++ {
		d.Observe(1.0 + float64(i)*0.05)
	}
	d.Observe(900.0) // one spike
	st := d.ExportState(false)

	fresh := NewSpikeDetector(6, true)
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
		s1, k1 := d.Observe(v)
		s2, k2 := fresh.Observe(v)
		if s1 != s2 || k1 != k2 {
			t.Fatalf("step %d: verdicts diverge after restore: (%v,%v) vs (%v,%v)", i, s1, k1, s2, k2)
		}
	}
}

// TestSpikeDetectorRollbackExport: ExportState(rollback=true) must return
// the state as it was before the most recent Observe — the one-deep
// rollback the repair cut needs.
func TestSpikeDetectorRollbackExport(t *testing.T) {
	d := NewSpikeDetector(5, false)
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
	d := NewSpikeDetector(16, false)
	for i := 0; i < 16; i++ {
		d.Observe(1.0)
	}
	allocs := testing.AllocsPerRun(100, func() { d.Observe(1.0) })
	if allocs > 0 {
		t.Fatalf("Observe allocates %.1f per call in steady state", allocs)
	}
}
