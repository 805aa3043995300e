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
	"fmt"
	"testing"

	"weipipe/internal/bench"
	"weipipe/internal/cluster"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
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

// ablationWorkload is a communication-sensitive configuration where the
// ablated mechanisms matter.
func ablationSpec() schedule.Spec {
	w := Workload{H: 2048, S: 16384, G: 4, L: 32, N: 32, P: 8, Recompute: true}.WithDefaults()
	return schedule.Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkEthernet(8, 4)}
}

func runSpec(b *testing.B, spec schedule.Spec) float64 {
	b.Helper()
	tasks, err := schedule.Build("weipipe-interleave", spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(tasks)
	if err != nil {
		b.Fatal(err)
	}
	return res.Makespan
}

// BenchmarkAblationWireFormat compares the paper's fp16 wire format against
// fp32 transfers (2× bytes).
func BenchmarkAblationWireFormat(b *testing.B) {
	var fp16, fp32 float64
	for i := 0; i < b.N; i++ {
		spec := ablationSpec()
		fp16 = runSpec(b, spec)
		spec.WireFP32 = true
		fp32 = runSpec(b, spec)
	}
	b.ReportMetric(fp32/fp16, "speedup_x")
}

// BenchmarkAblationBeltBuffers compares single- vs double-buffered belts
// (chunk-granularity flow-control slack).
func BenchmarkAblationBeltBuffers(b *testing.B) {
	var single, double float64
	for i := 0; i < b.N; i++ {
		spec := ablationSpec()
		spec.BeltBuffers = 1
		single = runSpec(b, spec)
		spec.BeltBuffers = 2
		double = runSpec(b, spec)
	}
	b.ReportMetric(single/double, "speedup_x")
}

// BenchmarkAblationGradRing compares in-transit gradient accumulation (the
// D belt) against a terminal full-gradient ring all-reduce.
func BenchmarkAblationGradRing(b *testing.B) {
	var belt, terminal float64
	for i := 0; i < b.N; i++ {
		spec := ablationSpec()
		belt = runSpec(b, spec)
		spec.TerminalGradAllReduce = true
		terminal = runSpec(b, spec)
	}
	b.ReportMetric(terminal/belt, "speedup_x")
}

// BenchmarkAblationRecompute compares WeiPipe with and without activation
// checkpointing: time cost of the extra forward vs the memory saved.
func BenchmarkAblationRecompute(b *testing.B) {
	var withR, withoutR SimResult
	var err error
	for i := 0; i < b.N; i++ {
		w := Workload{H: 2048, S: 16384, G: 4, L: 32, N: 32, P: 8, Recompute: true}
		top := NVLinkEthernet(8, 4)
		withR, err = Simulate(WeiPipeInterleave, w, top)
		if err != nil {
			b.Fatal(err)
		}
		w.Recompute = false
		withoutR, err = Simulate(WeiPipeInterleave, w, top)
		if err != nil {
			b.Fatal(err)
		}
	}
	if withoutR.TokensPerSecPerGPU > 0 {
		b.ReportMetric(withoutR.TokensPerSecPerGPU/withR.TokensPerSecPerGPU, "speedup_x")
	}
	b.ReportMetric(withoutR.MemoryGB/withR.MemoryGB, "mem_ratio")
}

var _ = fmt.Sprintf // keep fmt for future metric labels

// BenchmarkExtBubble regenerates the bubble-vs-N analysis table.
func BenchmarkExtBubble(b *testing.B) { reportExperiment(b, bench.ExtBubble) }

// BenchmarkExtHybrid regenerates the flat-vs-hybrid ring scaling table.
func BenchmarkExtHybrid(b *testing.B) { reportExperiment(b, bench.ExtHybrid) }
