// weipipe-trace renders the simulated per-worker schedule of any strategy
// as an ASCII timeline — the textual analogue of the paper's Figures 1–4 —
// and aligns measured runtime traces against the model with -compare.
//
// Examples:
//
//	weipipe-trace -strategy weipipe-naive -p 4 -n 8
//	weipipe-train -p 4 -strategy wzb2 -trace out.json && \
//	    weipipe-trace -compare out.json          # measured vs simulated
package main

import (
	"flag"
	"fmt"
	"os"

	"weipipe/internal/bench"
	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
)

func main() {
	strategy := flag.String("strategy", "weipipe-interleave", "strategy to trace")
	p := flag.Int("p", 4, "workers")
	n := flag.Int("n", 8, "microbatches")
	width := flag.Int("width", 96, "timeline width in characters")
	chrome := flag.String("chrome", "", "also write a Chrome/Perfetto trace JSON to this path")
	compare := flag.String("compare", "", "compare a measured trace JSON (from weipipe-train -trace) against the simulated schedule for the same strategy/p/n and print per-phase deltas")
	flag.Parse()

	if *compare != "" {
		blob, err := os.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-trace:", err)
			os.Exit(1)
		}
		rep, err := bench.CompareTrace(blob)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-trace:", err)
			os.Exit(1)
		}
		fmt.Print(rep)
		return
	}

	s, err := bench.Timeline(*strategy, *p, *n, *width)
	if err != nil {
		fmt.Fprintln(os.Stderr, "weipipe-trace:", err)
		os.Exit(1)
	}
	fmt.Print(s)
	fmt.Println("legend: F forward · B activation-gradient pass · W weight-gradient pass · '.' idle")

	if *chrome != "" {
		w := cost.Workload{H: 1024, S: 4096, G: 4, L: *p, N: *n, P: *p, Heads: 16}.WithDefaults()
		tasks, err := schedule.Build(*strategy, schedule.Spec{
			W: w, GPU: cluster.A800(), Top: cluster.NVLinkSingle(*p),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-trace:", err)
			os.Exit(1)
		}
		res, err := sim.Run(tasks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-trace:", err)
			os.Exit(1)
		}
		blob, err := res.ChromeTrace()
		if err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-trace:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*chrome, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "weipipe-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace written to %s (open in ui.perfetto.dev)\n", *chrome)
	}
}
