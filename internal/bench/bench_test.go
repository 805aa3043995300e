package bench

import (
	"fmt"
	"strings"
	"testing"
)

// These tests pin the regenerated tables and figures to the paper's
// qualitative results: who wins, by roughly what factor, where the OOMs
// and crossovers fall. Absolute tokens/s are not asserted (our substrate
// is a simulator, not the authors' testbed).

func TestTable2Shape(t *testing.T) {
	e, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Rows) != 9 {
		t.Fatalf("rows = %d", len(e.Rows))
	}
	for _, r := range e.Rows {
		best, _ := r.Best()
		if best != "weipipe-interleave" {
			t.Errorf("%s: best = %s, want weipipe-interleave", r.Label, best)
		}
		wp := r.Cells["weipipe-interleave"]
		_, base := r.BestExcluding("weipipe-interleave")
		adv := wp.ThroughputTPS / base
		if adv < 1.05 || adv > 2.2 {
			t.Errorf("%s: weipipe advantage %.2fx outside the paper's ballpark", r.Label, adv)
		}
		// Against the paper's emphasized baselines the margin is larger.
		if wp.ThroughputTPS < 1.10*r.Cells["fsdp"].ThroughputTPS {
			t.Errorf("%s: weipipe ≤ 1.10× fsdp", r.Label)
		}
		// OOM pattern must match the paper's exactly.
		for s, c := range r.Cells {
			if c.OOM != c.PaperOOM {
				t.Errorf("%s %s: model OOM=%v, paper OOM=%v", r.Label, s, c.OOM, c.PaperOOM)
			}
		}
		// Memory within a factor of the paper's measurement.
		for s, c := range r.Cells {
			if c.PaperMemGB > 0 && !c.OOM {
				if c.MemoryGB < 0.4*c.PaperMemGB || c.MemoryGB > 1.6*c.PaperMemGB {
					t.Errorf("%s %s: memory %.1f GB vs paper %.1f GB", r.Label, s, c.MemoryGB, c.PaperMemGB)
				}
			}
		}
		// FSDP stays the memory floor; WeiPipe close behind.
		if r.Cells["fsdp"].MemoryGB > r.Cells["weipipe-interleave"].MemoryGB {
			t.Errorf("%s: fsdp memory above weipipe", r.Label)
		}
	}
}

func TestTable2WeiPipeMemoryRowInvariant(t *testing.T) {
	// WeiPipe's memory column is constant down each H block (G·S fixed).
	e, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i += 3 {
		a := e.Rows[i].Cells["weipipe-interleave"].MemoryGB
		b := e.Rows[i+2].Cells["weipipe-interleave"].MemoryGB
		if a != b {
			t.Errorf("rows %d/%d: weipipe memory %v != %v", i, i+2, a, b)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	e, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range e.Rows {
		if best, _ := r.Best(); best == "weipipe-interleave" {
			wins++
		}
		// WeiPipe always beats FSDP and 1F1B under Ethernet (paper's
		// strongest claim for this environment).
		wp := r.Cells["weipipe-interleave"].ThroughputTPS
		if wp <= r.Cells["fsdp"].ThroughputTPS || wp <= r.Cells["1f1b"].ThroughputTPS {
			t.Errorf("%s: weipipe %f not above fsdp %f / 1f1b %f", r.Label,
				wp, r.Cells["fsdp"].ThroughputTPS, r.Cells["1f1b"].ThroughputTPS)
		}
		for s, c := range r.Cells {
			if c.OOM != c.PaperOOM {
				t.Errorf("%s %s: model OOM=%v, paper OOM=%v", r.Label, s, c.OOM, c.PaperOOM)
			}
		}
	}
	if wins < len(e.Rows)-1 {
		t.Errorf("weipipe wins only %d of %d rows", wins, len(e.Rows))
	}
}

func TestTable4Shape(t *testing.T) {
	// The honest negative result: on 8 all-NVLink GPUs with L=16, WeiPipe
	// is never the winner.
	e, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Rows {
		if best, _ := r.Best(); best == "weipipe-interleave" {
			t.Errorf("%s: weipipe unexpectedly best on all-NVLink small scale", r.Label)
		}
	}
	// ZB OOM pattern matches at H=4096.
	for _, r := range e.Rows[2:] {
		if !r.Cells["zb1"].OOM || !r.Cells["zb2"].OOM {
			t.Errorf("%s: expected ZB OOM", r.Label)
		}
	}
}

func TestFig5Crossover(t *testing.T) {
	e, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// 1F1B wins at the shortest context, WeiPipe at the longest, and the
	// weipipe/1f1b ratio grows monotonically with S.
	first := e.Rows[0]
	last := e.Rows[len(e.Rows)-1]
	if best, _ := first.Best(); best != "1f1b" {
		t.Errorf("shortest context: best = %s, want 1f1b", best)
	}
	if best, _ := last.Best(); best != "weipipe-interleave" {
		t.Errorf("longest context: best = %s, want weipipe-interleave", best)
	}
	// The weipipe/1f1b ratio grows monotonically up to the crossover region
	// (the final point may flatten once attention FLOPs dominate both).
	prev := 0.0
	for _, r := range e.Rows[:len(e.Rows)-1] {
		ratio := r.Cells["weipipe-interleave"].ThroughputTPS / r.Cells["1f1b"].ThroughputTPS
		if ratio < prev {
			t.Errorf("%s: weipipe/1f1b ratio %.3f fell below previous %.3f", r.Label, ratio, prev)
		}
		prev = ratio
	}
	lastRatio := last.Cells["weipipe-interleave"].ThroughputTPS / last.Cells["1f1b"].ThroughputTPS
	if lastRatio <= 1 {
		t.Errorf("longest context ratio %.3f not above 1", lastRatio)
	}
	firstRatio := first.Cells["weipipe-interleave"].ThroughputTPS / first.Cells["1f1b"].ThroughputTPS
	if firstRatio >= 1 {
		t.Errorf("shortest context ratio %.3f not below 1", firstRatio)
	}
}

func perGPUDecline(e *Experiment, s string) float64 {
	first := e.Rows[0].Cells[s].ThroughputTPS
	last := e.Rows[len(e.Rows)-1].Cells[s].ThroughputTPS
	if first == 0 {
		return 1
	}
	return 1 - last/first
}

func TestWeakScalingShape(t *testing.T) {
	for _, build := range []func() (*Experiment, error){Fig6, Fig7} {
		e, err := build()
		if err != nil {
			t.Fatal(err)
		}
		lastRow := e.Rows[len(e.Rows)-1]
		if best, _ := lastRow.Best(); best != "weipipe-interleave" {
			t.Errorf("%s: best at largest P = %s, want weipipe-interleave", e.ID, best)
		}
		// WeiPipe's per-GPU decline is the smallest among the plotted
		// strategies (the paper's weak-scaling claim).
		wpDecline := perGPUDecline(e, "weipipe-interleave")
		for _, s := range e.Strategies {
			if s == "weipipe-interleave" {
				continue
			}
			if e.Rows[0].Cells[s].OOM || lastRow.Cells[s].OOM {
				continue
			}
			if d := perGPUDecline(e, s); d < wpDecline {
				t.Errorf("%s: %s declines %.1f%% < weipipe %.1f%%", e.ID, s, d*100, wpDecline*100)
			}
		}
	}
}

func TestStrongScalingShape(t *testing.T) {
	for _, build := range []func() (*Experiment, error){Fig8, Fig9} {
		e, err := build()
		if err != nil {
			t.Fatal(err)
		}
		// Total WeiPipe throughput must grow with P (speedup on a fixed
		// batch), and WeiPipe must lead at the largest scale.
		var prevTotal float64
		for i, r := range e.Rows {
			p := []int{0, 0, 0}
			_ = p
			cell := r.Cells["weipipe-interleave"]
			// Row labels are "P=<n>"; total = per-GPU × P.
			var pVal int
			if _, err := fmt.Sscanf(r.Label, "P=%d", &pVal); err != nil {
				t.Fatalf("bad label %q", r.Label)
			}
			total := cell.ThroughputTPS * float64(pVal)
			if i > 0 && total <= prevTotal {
				t.Errorf("%s: weipipe total throughput did not grow at %s (%.0f ≤ %.0f)",
					e.ID, r.Label, total, prevTotal)
			}
			prevTotal = total
		}
		lastRow := e.Rows[len(e.Rows)-1]
		if best, _ := lastRow.Best(); best != "weipipe-interleave" {
			t.Errorf("%s: best at largest P = %s", e.ID, best)
		}
	}
}

func TestTimelinesRender(t *testing.T) {
	for i, f := range []func(int) (string, error){Figure1, Figure2, Figure3, Figure4} {
		s, err := f(80)
		if err != nil {
			t.Fatalf("figure %d: %v", i+1, err)
		}
		if !strings.Contains(s, "w0") || !strings.Contains(s, "F") || !strings.Contains(s, "B") {
			t.Fatalf("figure %d timeline malformed:\n%s", i+1, s)
		}
		if len(strings.Split(strings.TrimSpace(s), "\n")) != 5 { // header + 4 workers
			t.Fatalf("figure %d: wrong line count:\n%s", i+1, s)
		}
	}
}

func TestNaiveBubbleExceedsInterleave(t *testing.T) {
	// The point of Figures 1 vs 2: Naive's bubble dwarfs Interleave's.
	n, err := Timeline("weipipe-naive", 4, 8, 80)
	if err != nil {
		t.Fatal(err)
	}
	i, err := Timeline("weipipe-interleave", 4, 8, 80)
	if err != nil {
		t.Fatal(err)
	}
	nb := extractBubble(t, n)
	ib := extractBubble(t, i)
	if nb <= ib {
		t.Errorf("naive bubble %.1f%% not above interleave %.1f%%", nb, ib)
	}
}

func extractBubble(t *testing.T, timeline string) float64 {
	t.Helper()
	var v float64
	idx := strings.Index(timeline, "bubble=")
	if idx < 0 {
		t.Fatalf("no bubble in %q", timeline)
	}
	if _, err := fmt.Sscanf(timeline[idx:], "bubble=%f%%", &v); err != nil {
		t.Fatalf("parse bubble: %v", err)
	}
	return v
}

func TestFormatIncludesPaperNumbers(t *testing.T) {
	e, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	out := e.Format()
	if !strings.Contains(out, "|15139") {
		t.Errorf("formatted table missing paper value:\n%s", out)
	}
	if !strings.Contains(out, "OOM") {
		t.Error("formatted table missing OOM markers")
	}
	if !strings.Contains(out, "memory") {
		t.Error("formatted table missing memory block")
	}
}

// TestAllExperimentsBuild renders every experiment of the table once: ids
// are unique, and each one but a schedule diagram opens with its own
// "== id:" title (-exp all titles the diagrams).
func TestAllExperimentsBuild(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		s, err := e.Render(96)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if titled := strings.HasPrefix(s, "== "+e.ID+": "); titled == e.Diagram {
			t.Errorf("%s: diagram %v, but its output opens %q", e.ID, e.Diagram, strings.SplitN(s, "\n", 2)[0])
		}
	}
	if len(seen) != 16 {
		t.Errorf("%d experiments, want 16", len(seen))
	}
}

func TestExtBubbleShape(t *testing.T) {
	e, err := ExtBubble()
	if err != nil {
		t.Fatal(err)
	}
	// Bubbles shrink as N grows for every schedule; GPipe and Naive are
	// the worst at every N.
	for _, s := range e.Strategies {
		first := e.Rows[0].Cells[s].ThroughputTPS // bubble %
		last := e.Rows[len(e.Rows)-1].Cells[s].ThroughputTPS
		if last >= first {
			t.Errorf("%s: bubble did not shrink with N (%.1f%% -> %.1f%%)", s, first, last)
		}
	}
	for _, r := range e.Rows {
		if r.Cells["weipipe-naive"].ThroughputTPS <= r.Cells["weipipe-interleave"].ThroughputTPS {
			t.Errorf("%s: naive bubble not above interleave", r.Label)
		}
	}
}

func TestExtHybridShape(t *testing.T) {
	e, err := ExtHybrid()
	if err != nil {
		t.Fatal(err)
	}
	// At P=8 (one ring) hybrid degenerates to flat; beyond it, hybrid must
	// dominate the flat ring and degrade far more slowly.
	first := e.Rows[0]
	if first.Cells["weipipe-dp8"].ThroughputTPS != first.Cells["weipipe-interleave"].ThroughputTPS {
		t.Error("P=8: hybrid should equal the flat ring")
	}
	last := e.Rows[len(e.Rows)-1]
	if last.Cells["weipipe-dp8"].ThroughputTPS < 1.4*last.Cells["weipipe-interleave"].ThroughputTPS {
		t.Errorf("P=32: hybrid %f not well above flat %f",
			last.Cells["weipipe-dp8"].ThroughputTPS, last.Cells["weipipe-interleave"].ThroughputTPS)
	}
	hybridDecline := perGPUDecline(e, "weipipe-dp8")
	flatDecline := perGPUDecline(e, "weipipe-interleave")
	if hybridDecline >= flatDecline {
		t.Errorf("hybrid declines %.1f%% ≥ flat %.1f%%", hybridDecline*100, flatDecline*100)
	}
}
