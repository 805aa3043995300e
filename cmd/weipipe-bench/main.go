// weipipe-bench regenerates the paper's tables and figures from the
// performance model and prints them with the paper's published numbers side
// by side (model|paper).
//
// Usage:
//
//	weipipe-bench                 # everything
//	weipipe-bench -exp table2     # one experiment
//	weipipe-bench -exp fig1       # a schedule-diagram figure (ASCII)
//	weipipe-bench -list           # list experiment ids
//	weipipe-bench -sweep          # strategy×topology×scale cost-model grid,
//	                              # written to BENCH_sweep.json
//	weipipe-bench -kernel         # functional scalar-vs-SIMD kernel A/B
//	                              # (MatMulNT 256³; NN, TN, the B pass's
//	                              # two NT and attention at the long-*
//	                              # benchmark shapes), written
//	                              # to BENCH_kernel.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"weipipe/internal/bench"
	"weipipe/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: all, table2, table3, table4, fig1..fig9, ext-bubble, ext-hybrid, ablations")
	width := flag.Int("width", 96, "timeline width for fig1..fig4")
	list := flag.Bool("list", false, "list experiment ids and exit")
	backend := flag.String("backend", "", "tensor kernel backend: scalar, avx2, avx512 (avx2's bits on 16-lane GEMM panels), auto (default: auto, the fastest this CPU supports)")
	sweep := flag.Bool("sweep", false, "run the strategy×topology×scale cost-model sweep")
	sweepOut := flag.String("sweep-out", "BENCH_sweep.json", "output path for -sweep")
	grouped := flag.Bool("grouped", false, "run the grouped-belt traffic benchmark (simulated grid + functional p=16 A/B)")
	groupedOut := flag.String("grouped-out", "BENCH_grouped.json", "output path for -grouped")
	requireGroupedWin := flag.Bool("require-grouped-win", false, "exit nonzero unless the -grouped-out report shows bit-identity and an inter-group byte reduction, measured and simulated (the CI grouped guard); checks an existing report when -grouped is absent")
	kernel := flag.Bool("kernel", false, "run the functional kernel A/B (scalar vs best backend): MatMulNT 256³, and MatMulNN, MatMulTN, the B pass's two MatMulNT, attention and the head's SoftmaxRows at the long-* benchmark shapes")
	kernelOut := flag.String("kernel-out", "BENCH_kernel.json", "output path for -kernel")
	kernelReps := flag.Int("kernel-reps", 20, "repetitions (min taken) for -kernel")
	requireSpeedup := flag.Float64("require-kernel-speedup", 0, "exit nonzero unless every row of the -kernel-out report reaches this SIMD speedup (the CI kernel guard); 0 disables")
	flag.Parse()

	if *backend != "" {
		if err := tensor.SetBackend(*backend); err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
			os.Exit(1)
		}
	}
	if *sweep {
		if err := bench.WriteSweep(*sweepOut); err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *grouped {
		if err := bench.WriteGroupedBench(*groupedOut); err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
			os.Exit(1)
		}
	}
	if *requireGroupedWin {
		rep, err := bench.ReadGroupedReport(*groupedOut)
		if err == nil {
			err = bench.CheckGroupedWin(rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("grouped guard: %s ok\n", *groupedOut)
	}
	if *grouped || *requireGroupedWin {
		return
	}
	if *kernel {
		if err := bench.WriteKernelBench(*kernelOut, *kernelReps); err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
			os.Exit(1)
		}
	}
	if *requireSpeedup > 0 {
		if err := bench.RequireKernelSpeedup(*kernelOut, *requireSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("kernel guard: %s ok\n", *kernelOut)
	}
	if *kernel || *requireSpeedup > 0 {
		return
	}
	if *list {
		fmt.Println("table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ext-bubble ext-hybrid ablations all")
		return
	}
	if err := run(os.Stdout, *exp, *width); err != nil {
		fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
		os.Exit(1)
	}
}

// run writes experiment exp — one id, or "all" — to w.
func run(w io.Writer, exp string, width int) error {
	timelines := map[string]func(int) (string, error){
		"fig1": bench.Figure1, "fig2": bench.Figure2,
		"fig3": bench.Figure3, "fig4": bench.Figure4,
	}
	tables := map[string]func() (*bench.Experiment, error){
		"table2": bench.Table2, "table3": bench.Table3, "table4": bench.Table4,
		"fig5": bench.Fig5, "fig6": bench.Fig6, "fig7": bench.Fig7,
		"fig8": bench.Fig8, "fig9": bench.Fig9,
		"ext-bubble": bench.ExtBubble, "ext-hybrid": bench.ExtHybrid,
	}

	switch {
	case exp == "all":
		// The cost model does no tensor math: nothing about the host
		// enters the output, so regenerations diff clean across machines.
		fmt.Fprintf(w, "regenerated by weipipe-bench\n\n")
		for _, id := range []string{"fig1", "fig2", "fig3", "fig4"} {
			s, err := timelines[id](width)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "== %s ==\n%s\n", id, s)
		}
		exps, err := bench.All()
		if err != nil {
			return err
		}
		for _, e := range exps {
			fmt.Fprintln(w, e.Format())
		}
		for _, id := range []string{"ext-bubble", "ext-hybrid"} {
			e, err := tables[id]()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, e.Format())
		}
		abs, err := bench.Ablations()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.FormatAblations(abs))
		return nil
	case exp == "ablations":
		abs, err := bench.Ablations()
		if err != nil {
			return err
		}
		fmt.Fprint(w, bench.FormatAblations(abs))
		return nil
	case timelines[exp] != nil:
		s, err := timelines[exp](width)
		if err != nil {
			return err
		}
		fmt.Fprint(w, s)
		return nil
	case tables[exp] != nil:
		e, err := tables[exp]()
		if err != nil {
			return err
		}
		fmt.Fprint(w, e.Format())
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (use -list)", exp)
	}
}
