package bench

import (
	"fmt"
	"strings"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/sim"
)

// Timeline renders an ASCII schedule diagram for a strategy — the textual
// analogue of the paper's Figures 1–4 (the rotating-circle diagrams for
// WeiPipe-Naive, WeiPipe-Interleave, WZB1 and WZB2) and usable for any
// strategy. Each worker is one row; time runs left to right; F/B/W mark
// forward, activation-gradient and weight-gradient compute, '.' is idle.
func Timeline(strategy string, p, n int, width int) (string, error) {
	if width <= 0 {
		width = 96
	}
	// One layer per worker (L = P) matches the figures' granularity.
	w := cost.Workload{
		H: 1024, S: 4096, G: 4, L: p, N: n, P: p,
		Heads: 16, Recompute: false,
	}.WithDefaults()
	res, err := simulate(strategy, a800(w, cluster.NVLinkSingle(p)))
	if err != nil {
		return "", err
	}
	return renderTimeline(res, p, width,
		fmt.Sprintf("%s: P=%d workers, N=%d microbatches, bubble=%.1f%%",
			strategy, p, n, res.BubbleRatio()*100)), nil
}

// renderTimeline draws per-worker occupancy of a simulated schedule.
func renderTimeline(res *sim.Result, p, width int, header string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("\n")
	scale := float64(width) / res.Makespan
	for worker := 0; worker < p; worker++ {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, t := range res.WorkerTimeline(worker) {
			lo := int(t.Start * scale)
			hi := int(t.End * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			ch := byte('?')
			switch t.Kind {
			case "F":
				ch = 'F'
			case "B":
				ch = 'B'
			case "W":
				ch = 'W'
			}
			for i := lo; i < hi && i < width; i++ {
				line[i] = ch
			}
		}
		fmt.Fprintf(&b, "w%-2d |%s|\n", worker, line)
	}
	return b.String()
}

// Figure1 through Figure4 render the paper's schedule diagrams.
func Figure1(width int) (string, error) { return Timeline("weipipe-naive", 4, 8, width) }

// Figure2 renders the WeiPipe-Interleave schedule (paper Figure 2).
func Figure2(width int) (string, error) { return Timeline("weipipe-interleave", 4, 8, width) }

// Figure3 renders the WZB1 schedule (paper Figure 3).
func Figure3(width int) (string, error) { return Timeline("wzb1", 4, 8, width) }

// Figure4 renders the WZB2 schedule (paper Figure 4).
func Figure4(width int) (string, error) { return Timeline("wzb2", 4, 8, width) }
