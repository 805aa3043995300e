// Package bench regenerates every table and figure of the paper's
// evaluation section from the cost model, the per-strategy schedules and
// the discrete-event simulator. Each experiment returns the same
// rows/series the paper reports (throughput in tokens/s/GPU, memory in GB,
// OOM markers, scaling curves) together with the paper's published numbers
// for side-by-side comparison in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
)

// Cell is one (configuration, strategy) measurement.
type Cell struct {
	// ThroughputTPS is tokens/second/GPU (0 when OOM).
	ThroughputTPS float64
	// MemoryGB is the modelled peak per-worker memory.
	MemoryGB float64
	// OOM marks configurations that exceed the device budget.
	OOM bool
	// BubbleRatio is the simulated compute-idle fraction.
	BubbleRatio float64
	// PaperTPS is the paper's measured tokens/s/GPU (0 if unreported), and
	// PaperOOM its reported OOM marker.
	PaperTPS float64
	PaperOOM bool
	// PaperMemGB is the paper's measured memory (0 if unreported).
	PaperMemGB float64
}

// Row is one configuration row of a table (or one x-point of a figure).
type Row struct {
	Label string
	Cells map[string]Cell // keyed by strategy name
}

// Experiment is a regenerated table or figure.
type Experiment struct {
	ID          string // "table2", "fig6", ...
	Title       string
	Description string
	Strategies  []string // column order
	Rows        []Row
	// ShowMemory adds the memory column block when formatting.
	ShowMemory bool
}

// RunCell simulates one (workload, topology, strategy) cell.
func RunCell(strategy string, w cost.Workload, top cluster.Topology) (Cell, error) {
	gpu := cluster.A800()
	cell := Cell{MemoryGB: w.MemoryBytes(strategy) / (1 << 30)}
	if !w.FitsMemory(strategy, gpu) {
		cell.OOM = true
		return cell, nil
	}
	tasks, err := schedule.Build(strategy, schedule.Spec{W: w, GPU: gpu, Top: top})
	if err != nil {
		return cell, err
	}
	res, err := sim.Run(tasks)
	if err != nil {
		return cell, err
	}
	cell.ThroughputTPS = w.Tokens() / (res.Makespan * float64(w.P))
	cell.BubbleRatio = res.BubbleRatio()
	return cell, nil
}

// Best returns the strategy with the highest throughput in the row
// (ignoring OOM cells) and that throughput.
func (r Row) Best() (string, float64) {
	best, bestTPS := "", 0.0
	for s, c := range r.Cells {
		if !c.OOM && c.ThroughputTPS > bestTPS {
			best, bestTPS = s, c.ThroughputTPS
		}
	}
	return best, bestTPS
}

// BestExcluding returns the best strategy in the row other than `skip`.
func (r Row) BestExcluding(skip string) (string, float64) {
	best, bestTPS := "", 0.0
	for s, c := range r.Cells {
		if s == skip || c.OOM {
			continue
		}
		if c.ThroughputTPS > bestTPS {
			best, bestTPS = s, c.ThroughputTPS
		}
	}
	return best, bestTPS
}

// Format renders the experiment as an aligned text table with model and
// paper values side by side.
func (e *Experiment) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	if e.Description != "" {
		fmt.Fprintf(&b, "%s\n", e.Description)
	}
	b.WriteString(formatBlock(e, "throughput (tokens/s/GPU), model | paper", func(c Cell) string {
		if c.OOM {
			return "OOM"
		}
		if c.PaperTPS > 0 {
			return fmt.Sprintf("%.0f|%.0f", c.ThroughputTPS, c.PaperTPS)
		}
		if c.PaperOOM {
			return fmt.Sprintf("%.0f|OOM", c.ThroughputTPS)
		}
		return fmt.Sprintf("%.0f", c.ThroughputTPS)
	}))
	if e.ShowMemory {
		b.WriteString(formatBlock(e, "memory (GB), model | paper", func(c Cell) string {
			if c.OOM {
				return fmt.Sprintf("OOM(%.0f)", c.MemoryGB)
			}
			if c.PaperMemGB > 0 {
				return fmt.Sprintf("%.1f|%.1f", c.MemoryGB, c.PaperMemGB)
			}
			return fmt.Sprintf("%.1f", c.MemoryGB)
		}))
	}
	return b.String()
}

func formatBlock(e *Experiment, caption string, cell func(Cell) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n", caption)
	widths := make([]int, len(e.Strategies)+1)
	widths[0] = len("config")
	rows := make([][]string, 0, len(e.Rows)+1)
	header := append([]string{"config"}, e.Strategies...)
	for i, h := range header {
		if len(h) > widths[i] {
			widths[i] = len(h)
		}
	}
	rows = append(rows, header)
	for _, r := range e.Rows {
		line := []string{r.Label}
		for _, s := range e.Strategies {
			line = append(line, cell(r.Cells[s]))
		}
		for i, v := range line {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
		rows = append(rows, line)
	}
	for _, line := range rows {
		for i, v := range line {
			fmt.Fprintf(&b, "%-*s  ", widths[i], v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SortedStrategies returns the cell keys of a row in deterministic order.
func SortedStrategies(r Row) []string {
	out := make([]string, 0, len(r.Cells))
	for s := range r.Cells {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// fmtSscanf is a test seam over fmt.Sscanf.
var fmtSscanf = fmt.Sscanf
