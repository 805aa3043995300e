package bench

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weipipe/internal/pipeline"
)

// groupedWin is a grouped report that passes its gate: bit-identical, and
// fewer inter-group bytes measured and simulated.
func groupedWin() *groupedReport {
	return &groupedReport{
		Simulated: []groupedSimCell{
			{Strategy: "wzb2", Topology: "nvlink-eth", Workers: 16, InterBytes: 100},
			{Strategy: "wzb2g", Topology: "nvlink-eth", Workers: 16, InterBytes: 60},
			{Strategy: "wzb2", Topology: "pcie-eth", Workers: 16, InterBytes: 100},
			{Strategy: "wzb2g", Topology: "pcie-eth", Workers: 16, InterBytes: 70},
		},
		Measured: groupedMeasured{FlatInterBytes: 1000, GroupedInterBytes: 600, BitIdentical: true},
	}
}

func TestGroupedGate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*groupedReport)
		reject string // "" passes
	}{
		{"win", func(*groupedReport) {}, ""},
		{"not bit-identical", func(r *groupedReport) { r.Measured.BitIdentical = false }, "not bit-identical"},
		{"measured bytes not reduced", func(r *groupedReport) { r.Measured.GroupedInterBytes = 1000 }, "measured inter-group bytes not reduced"},
		{"simulated bytes not reduced", func(r *groupedReport) { r.Simulated[3].InterBytes = 100 }, "simulated inter-group bytes not reduced on pcie-eth"},
		{"no comparable cells", func(r *groupedReport) { r.Simulated = r.Simulated[:1] }, "no comparable"},
	} {
		rep := groupedWin()
		tc.mutate(rep)
		err := checkGrouped(rep)
		if tc.reject == "" && err != nil || tc.reject != "" && (err == nil || !strings.Contains(err.Error(), tc.reject)) {
			t.Errorf("%s: gate returned %v, want %q", tc.name, err, tc.reject)
		}
	}
}

// kernelWin is a kernel report from a SIMD build that passes its gate.
func kernelWin() *kernelReport {
	return &kernelReport{
		SIMDCompiled: true, BestBackend: "avx2", Backends: []string{"avx2", "scalar"},
		Rows: []kernelRow{
			{Name: "MatMulNT", Shape: "256x256x256", Speedup: 9},
			{Name: "attention fwd+bwd", Shape: "H64 h4 S512", Speedup: 2},
			{Name: "SoftmaxRows", Shape: "512x256", Speedup: 11},
		},
	}
}

func TestKernelGate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*kernelReport)
		reject string
	}{
		{"win", func(*kernelReport) {}, ""},
		{"row below 2x", func(r *kernelReport) { r.Rows[2].Speedup = 1.99 }, "avx2 SoftmaxRows 512x256 speedup 1.99x below required 2.00x"},
		{"no matmul rows", func(r *kernelReport) { r.Rows = nil }, "no rows"},
		{"SIMD build, scalar best", func(r *kernelReport) { r.BestBackend, r.Backends = "scalar", []string{"scalar"} }, "registered no SIMD backend"},
		{"scalar-only build", func(r *kernelReport) {
			r.SIMDCompiled, r.BestBackend, r.Backends = false, "scalar", []string{"scalar"}
			for i := range r.Rows {
				r.Rows[i].Speedup = 1
			}
		}, ""},
	} {
		rep := kernelWin()
		tc.mutate(rep)
		err := checkKernel(rep)
		if tc.reject == "" && err != nil || tc.reject != "" && (err == nil || !strings.Contains(err.Error(), tc.reject)) {
			t.Errorf("%s: gate returned %v, want %q", tc.name, err, tc.reject)
		}
	}
}

// TestReportCheckReadsTheFile: -check judges the report as written, so a
// file the gate rejects fails the check.
func TestReportCheckReadsTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grouped.json")
	rep := groupedWin()
	rep.Measured.BitIdentical = false
	r := reportOf(func() (*groupedReport, error) { return rep, nil },
		func(io.Writer, *groupedReport) {}, checkGrouped)
	if err := r.write(io.Discard, path); err != nil {
		t.Fatal(err)
	}
	if err := r.check(path); err == nil || !strings.Contains(err.Error(), "not bit-identical") {
		t.Fatalf("check of a non-identical report returned %v", err)
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.check(path); err == nil {
		t.Fatal("check of a truncated report passed")
	}
}

// TestBitIdenticalComparesBits: −0 and +0 differ, a NaN matches itself.
func TestBitIdenticalComparesBits(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		a, b pipeline.ClusterResult
		want bool
	}{
		{"equal bits", pipeline.ClusterResult{Losses: []float64{1.5, nan}, Weights: []float32{2, float32(nan)}},
			pipeline.ClusterResult{Losses: []float64{1.5, nan}, Weights: []float32{2, float32(nan)}}, true},
		{"loss -0 vs +0", pipeline.ClusterResult{Losses: []float64{math.Copysign(0, -1)}},
			pipeline.ClusterResult{Losses: []float64{0}}, false},
		{"weight -0 vs +0", pipeline.ClusterResult{Weights: []float32{float32(math.Copysign(0, -1))}},
			pipeline.ClusterResult{Weights: []float32{0}}, false},
		{"lengths differ", pipeline.ClusterResult{Losses: []float64{1}},
			pipeline.ClusterResult{Losses: []float64{1, 1}}, false},
	} {
		if got := bitIdenticalRuns(&tc.a, &tc.b); got != tc.want {
			t.Errorf("%s: bitIdenticalRuns = %v, want %v", tc.name, got, tc.want)
		}
	}
}
