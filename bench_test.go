package weipipe

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section (regenerating the rows/series), plus
// ablation benchmarks for the design choices DESIGN.md calls out. Measured
// training steps of the real runtimes live in benchmark/ (see BENCHMARK.json).
//
//	go test -bench=. -benchmem
//
// Reported custom metrics:
//
//	weipipe_tps       modelled WeiPipe-Interleave tokens/s/GPU
//	advantage_x       WeiPipe over the best non-WeiPipe baseline
//	bubble_pct        simulated compute-idle percentage
//	speedup_x         ablation on/off ratio

import (
	"testing"

	"weipipe/internal/bench"
)

// reportExperiment re-generates a table/figure b.N times and reports the
// headline metric from the last row.
func reportExperiment(b *testing.B, build func() (*bench.Experiment, error)) {
	b.Helper()
	var e *bench.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = build()
		if err != nil {
			b.Fatal(err)
		}
	}
	row := e.Rows[len(e.Rows)-1]
	if c, ok := row.Cells["weipipe-interleave"]; ok && !c.OOM {
		b.ReportMetric(c.ThroughputTPS, "weipipe_tps")
		if _, base := row.BestExcluding("weipipe-interleave"); base > 0 {
			b.ReportMetric(c.ThroughputTPS/base, "advantage_x")
		}
		b.ReportMetric(c.BubbleRatio*100, "bubble_pct")
	}
}

// BenchmarkTable2 regenerates paper Table 2 (throughput + memory, 16 GPUs,
// NVLink clusters).
func BenchmarkTable2(b *testing.B) { reportExperiment(b, bench.Table2) }

// BenchmarkTable3 regenerates paper Table 3 (PCIe + Ethernet, 16 GPUs).
func BenchmarkTable3(b *testing.B) { reportExperiment(b, bench.Table3) }

// BenchmarkTable4 regenerates paper Table 4 (8 GPUs, all NVLink, L=16).
func BenchmarkTable4(b *testing.B) { reportExperiment(b, bench.Table4) }

// BenchmarkFigure5 regenerates the activation/weight crossover sweep.
func BenchmarkFigure5(b *testing.B) { reportExperiment(b, bench.Fig5) }

// BenchmarkFigure6 regenerates small-scale weak scaling (paper Fig. 6).
func BenchmarkFigure6(b *testing.B) { reportExperiment(b, bench.Fig6) }

// BenchmarkFigure7 regenerates large-scale weak scaling (paper Fig. 7).
func BenchmarkFigure7(b *testing.B) { reportExperiment(b, bench.Fig7) }

// BenchmarkFigure8 regenerates small-scale strong scaling (paper Fig. 8).
func BenchmarkFigure8(b *testing.B) { reportExperiment(b, bench.Fig8) }

// BenchmarkFigure9 regenerates large-scale strong scaling (paper Fig. 9).
func BenchmarkFigure9(b *testing.B) { reportExperiment(b, bench.Fig9) }

// benchTimeline renders one of the paper's schedule diagrams.
func benchTimeline(b *testing.B, f func(int) (string, error)) {
	b.Helper()
	var s string
	var err error
	for i := 0; i < b.N; i++ {
		s, err = f(96)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(s)), "chars")
}

// BenchmarkFigure1Timeline renders the WeiPipe-Naive schedule (paper Fig. 1).
func BenchmarkFigure1Timeline(b *testing.B) { benchTimeline(b, bench.Figure1) }

// BenchmarkFigure2Timeline renders WeiPipe-Interleave (paper Fig. 2).
func BenchmarkFigure2Timeline(b *testing.B) { benchTimeline(b, bench.Figure2) }

// BenchmarkFigure3Timeline renders WZB1 (paper Fig. 3).
func BenchmarkFigure3Timeline(b *testing.B) { benchTimeline(b, bench.Figure3) }

// BenchmarkFigure4Timeline renders WZB2 (paper Fig. 4).
func BenchmarkFigure4Timeline(b *testing.B) { benchTimeline(b, bench.Figure4) }

// ---- ablations -------------------------------------------------------------

// BenchmarkAblations runs the weight belts' design-choice ablations
// (bench.Ablations, EXPERIMENTS.md's "ablations" block) and reports each
// under its key: wire_speedup_x, buffers_speedup_x, gradring_speedup_x and
// recompute_mem_ratio.
func BenchmarkAblations(b *testing.B) {
	var abs []bench.Ablation
	var err error
	for i := 0; i < b.N; i++ {
		if abs, err = bench.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range abs {
		b.ReportMetric(a.Value, a.Key+"_"+a.Metric)
	}
}

// BenchmarkExtBubble regenerates the bubble-vs-N analysis table.
func BenchmarkExtBubble(b *testing.B) { reportExperiment(b, bench.ExtBubble) }

// BenchmarkExtHybrid regenerates the flat-vs-hybrid ring scaling table.
func BenchmarkExtHybrid(b *testing.B) { reportExperiment(b, bench.ExtHybrid) }
