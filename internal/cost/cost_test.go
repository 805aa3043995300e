package cost

import (
	"testing"

	"weipipe/internal/cluster"
)

// paperTable2 returns the paper's Table 2 workload for the given row.
func paperTable2(h, s, g int) Workload {
	return Workload{H: h, S: s, G: g, L: 32, N: 64, P: 16, Recompute: true}.WithDefaults()
}

// zbTable2 returns the same row with the ZB strategies' reduced microbatch
// (G=4 at S=4096, G=1 otherwise) and no recomputation.
func zbTable2(h, s int) Workload {
	g := 1
	if s == 4096 {
		g = 4
	}
	return Workload{H: h, S: s, G: g, L: 32, N: 64, P: 16, Recompute: false}.WithDefaults()
}

func gb(b float64) float64 { return b / (1 << 30) }

func TestParamCounts(t *testing.T) {
	w := paperTable2(1024, 4096, 16)
	if got := w.LayerParams(); got < 12*1024*1024 || got > 12*1024*1024+3000 {
		t.Fatalf("LayerParams = %v", got)
	}
	// 32 layers of 12H² + two V·H edges ≈ 470M at H=1024
	total := w.TotalParams()
	if total < 4.6e8 || total > 4.8e8 {
		t.Fatalf("TotalParams = %v", total)
	}
}

func TestFLOPsFormula(t *testing.T) {
	w := paperTable2(1024, 4096, 16)
	g, s, h := 16.0, 4096.0, 1024.0
	want := 24*g*s*h*h + 4*g*s*s*h
	if got := w.LayerFwdFLOPs(); got != want {
		t.Fatalf("LayerFwdFLOPs = %v, want %v", got, want)
	}
	// attention term grows quadratically with S
	w2 := paperTable2(1024, 8192, 16)
	if w2.LayerFwdFLOPs() <= 2*w.LayerFwdFLOPs() {
		t.Fatal("doubling S should more than double layer FLOPs")
	}
}

func TestTimesRecomputeAddsForward(t *testing.T) {
	gpu := cluster.A800()
	w := paperTable2(1024, 4096, 16)
	withR := w.Times(gpu)
	w.Recompute = false
	without := w.Times(gpu)
	if withR.F != without.F || withR.W != without.W {
		t.Fatal("recompute must only change B")
	}
	if withR.B <= without.B {
		t.Fatal("recompute must lengthen B")
	}
	if without.B != without.F {
		t.Fatal("B ≈ F without recompute")
	}
}

func TestWeightRatioCrossover(t *testing.T) {
	// The paper's motivation: G·S/(12H) > 1 for the long-context configs.
	long := paperTable2(1024, 16384, 4)
	if long.WeightRatio() <= 1 {
		t.Fatalf("long-context ratio = %v, want > 1", long.WeightRatio())
	}
	short := Workload{H: 4096, S: 512, G: 1, L: 32, N: 16, P: 8}.WithDefaults()
	if short.WeightRatio() >= 1 {
		t.Fatalf("short-context ratio = %v, want < 1", short.WeightRatio())
	}
}

func TestMessageSizes(t *testing.T) {
	w := paperTable2(2048, 8192, 8)
	if got := w.ActBoundaryBytes(); got != 8*8192*2048*2 {
		t.Fatalf("ActBoundaryBytes = %v", got)
	}
	if w.ChunkWeightBytes() <= 2*w.LayerWeightBytes() {
		t.Fatal("chunk must hold L/P layers plus an edge module")
	}
	// For long contexts an activation boundary exceeds a chunk of weights.
	if w.ActBoundaryBytes() < w.LayerWeightBytes() {
		t.Fatal("long-context activation should outweigh layer weights")
	}
}

// TestMemoryModelMatchesTable2Shape pins the calibrated memory model to the
// paper's measured Table 2 column: ordering, rough magnitude, and the OOM
// pattern.
func TestMemoryModelMatchesTable2Shape(t *testing.T) {
	gpu := cluster.A800()

	type row struct {
		h, s, g  int
		fsdpGB   float64 // paper-measured, for ±60% magnitude checks
		weipipGB float64
		f1bGB    float64
		zb1OOM   bool
		zb2OOM   bool
	}
	rows := []row{
		{1024, 4096, 16, 8.6, 9.4, 13.0, false, false},
		{1024, 8192, 8, 8.6, 9.4, 9.9, false, false},
		{1024, 16384, 4, 8.6, 9.4, 9.1, false, false},
		{2048, 4096, 16, 17.9, 19.9, 18.7, false, true},
		{2048, 8192, 8, 17.9, 19.9, 19.6, false, true},
		{2048, 16384, 4, 17.9, 19.9, 22.9, false, true},
		{4096, 4096, 16, 39, 44.5, 40.5, true, true},
		{4096, 8192, 8, 39, 44.5, 41.6, true, true},
		{4096, 16384, 4, 39, 44.5, 45.1, true, true},
	}
	for _, r := range rows {
		w := paperTable2(r.h, r.s, r.g)
		zw := zbTable2(r.h, r.s)

		fsdp := gb(w.MemoryBytes("fsdp"))
		wp := gb(w.MemoryBytes("weipipe-interleave"))
		f1b := gb(w.MemoryBytes("1f1b"))

		// ordering: FSDP ≤ WeiPipe; both well under the ZB footprints
		if fsdp > wp {
			t.Errorf("H=%d S=%d: fsdp %f > weipipe %f", r.h, r.s, fsdp, wp)
		}
		// magnitude within ±60% of the paper's measurement
		check := func(name string, got, paper float64) {
			if got < paper*0.4 || got > paper*1.6 {
				t.Errorf("H=%d S=%d %s: model %.1f GB vs paper %.1f GB", r.h, r.s, name, got, paper)
			}
		}
		check("fsdp", fsdp, r.fsdpGB)
		check("weipipe", wp, r.weipipGB)
		check("1f1b", f1b, r.f1bGB)

		// OOM pattern at the 80 GB boundary
		if got := !zw.FitsMemory("zb1", gpu); got != r.zb1OOM {
			t.Errorf("H=%d S=%d zb1 OOM=%v want %v (%.1f GB)", r.h, r.s, got, r.zb1OOM, gb(zw.MemoryBytes("zb1")))
		}
		if got := !zw.FitsMemory("zb2", gpu); got != r.zb2OOM {
			t.Errorf("H=%d S=%d zb2 OOM=%v want %v (%.1f GB)", r.h, r.s, got, r.zb2OOM, gb(zw.MemoryBytes("zb2")))
		}
		// the non-ZB strategies always fit in Table 2
		for _, s := range []string{"fsdp", "weipipe-interleave", "1f1b"} {
			if !w.FitsMemory(s, gpu) {
				t.Errorf("H=%d S=%d: %s unexpectedly OOM (%.1f GB)", r.h, r.s, s, gb(w.MemoryBytes(s)))
			}
		}
	}
}

func TestMemoryIndependentOfSequenceAtFixedGS(t *testing.T) {
	// Rows of Table 2 hold G·S constant; the model's activation terms
	// should then be S-invariant.
	a := paperTable2(1024, 4096, 16).MemoryBytes("weipipe-interleave")
	b := paperTable2(1024, 16384, 4).MemoryBytes("weipipe-interleave")
	if a != b {
		t.Fatalf("memory changed with S at fixed G·S: %v vs %v", a, b)
	}
}

func TestWorkloadValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid workload did not panic")
		}
	}()
	Workload{H: 0, S: 1, G: 1, L: 1, N: 1, P: 1}.WithDefaults()
}

func TestUnknownStrategyPanics(t *testing.T) {
	w := paperTable2(1024, 4096, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy did not panic")
		}
	}()
	w.MemoryBytes("nope")
}
