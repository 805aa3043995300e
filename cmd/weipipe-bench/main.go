// weipipe-bench regenerates the paper's tables and figures from the
// performance model and prints them with the paper's published numbers side
// by side (model|paper), and writes the JSON reports.
//
// Usage:
//
//	weipipe-bench                       # every experiment
//	weipipe-bench -exp table2           # one experiment
//	weipipe-bench -exp fig1 -width 60   # a schedule-diagram figure (ASCII)
//	weipipe-bench -list                 # list experiment ids
//	weipipe-bench -report sweep         # strategy×topology×scale cost-model
//	                                    # grid, written to BENCH_sweep.json
//	weipipe-bench -report grouped       # flat vs grouped belt traffic,
//	                                    # simulated and measured at p=16
//	weipipe-bench -report kernel -check # scalar-vs-SIMD kernel A/B, gated
//	                                    # at 2× on every row
//
// -out overrides a report's path (default BENCH_<report>.json). -check
// applies the report's gate to the file it wrote: bit-identity and fewer
// inter-group bytes for grouped, the SIMD speedup for kernel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"weipipe/internal/bench"
	"weipipe/internal/tensor"
)

func main() {
	var ids []string
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
	}
	exp := flag.String("exp", "all", "experiment id: all, "+strings.Join(ids, ", "))
	width := flag.Int("width", 96, "timeline width of the schedule diagrams")
	list := flag.Bool("list", false, "list experiment ids and exit")
	backend := flag.String("backend", "", "tensor kernel backend: scalar, avx2, avx512 (avx2's bits on 16-lane GEMM panels), auto (default: auto, the fastest this CPU supports)")
	report := flag.String("report", "", "write a JSON report instead of experiments: sweep, grouped or kernel")
	out := flag.String("out", "", "output path for -report (default BENCH_<report>.json)")
	check := flag.Bool("check", false, "after -report, exit nonzero unless the report passes its gate")
	flag.Parse()

	if err := func() error {
		if *backend != "" {
			if err := tensor.SetBackend(*backend); err != nil {
				return err
			}
		}
		switch {
		case *report != "":
			if *out == "" {
				*out = "BENCH_" + *report + ".json"
			}
			return bench.RunReport(os.Stdout, *report, *out, *check)
		case *list:
			fmt.Println(strings.Join(ids, " ") + " all")
			return nil
		}
		return run(os.Stdout, *exp, *width)
	}(); err != nil {
		fmt.Fprintln(os.Stderr, "weipipe-bench:", err)
		os.Exit(1)
	}
}

// run writes experiment exp — one id, or "all" — to w.
func run(w io.Writer, exp string, width int) error {
	if exp != "all" {
		for _, e := range bench.Experiments {
			if e.ID == exp {
				s, err := e.Render(width)
				if err == nil {
					_, err = fmt.Fprint(w, s)
				}
				return err
			}
		}
		return fmt.Errorf("unknown experiment %q (use -list)", exp)
	}
	// The cost model does no tensor math: nothing about the host enters the
	// output, so regenerations diff clean across machines.
	fmt.Fprintf(w, "regenerated by weipipe-bench\n\n")
	for _, e := range bench.Experiments {
		s, err := e.Render(width)
		if err != nil {
			return err
		}
		if e.Diagram {
			fmt.Fprintf(w, "== %s ==\n", e.ID)
		}
		fmt.Fprintln(w, s)
	}
	return nil
}
