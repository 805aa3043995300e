package bench

import (
	"fmt"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
)

// The five strategies the paper's tables report, in the paper's column
// order.
var tableStrategies = []string{"1f1b", "zb1", "zb2", "fsdp", "weipipe-interleave"}

// paperCell carries the paper's measured value for a cell (tokens/s/GPU,
// memory GB; negative throughput marks OOM).
type paperCell struct {
	tps float64
	mem float64
}

var oomCell = paperCell{tps: -1, mem: -1}

// zbWorkload applies the paper's zero-bubble microbatch policy: G=4 at
// S=4096, G=1 for longer sequences (memory limits). schedule.Build turns
// their recomputation off.
func zbWorkload(w cost.Workload) cost.Workload {
	if w.S == 4096 {
		w.G = 4
	} else {
		w.G = 1
	}
	return w
}

// buildRow evaluates every table strategy for one configuration.
func buildRow(label string, w cost.Workload, top cluster.Topology,
	paper map[string]paperCell) (Row, error) {
	row := Row{Label: label, Cells: make(map[string]Cell)}
	for _, s := range tableStrategies {
		wl := w
		if s == "zb1" || s == "zb2" {
			wl = zbWorkload(w)
		}
		cell, err := RunCell(s, a800(wl, top))
		if err != nil {
			return row, fmt.Errorf("%s %s: %w", label, s, err)
		}
		if pc, ok := paper[s]; ok {
			if pc.tps < 0 {
				cell.PaperOOM = true
			} else {
				cell.PaperTPS = pc.tps
				cell.PaperMemGB = pc.mem
			}
		}
		row.Cells[s] = cell
	}
	return row, nil
}

// paperRow is one configuration of a paper table and the paper's cells.
type paperRow struct {
	h, s, g int
	paper   map[string]paperCell
}

// paperTable fills e with one row of every table strategy per
// configuration, on top, each at the workload wl builds.
func paperTable(e *Experiment, top cluster.Topology, wl func(h, s, g int) cost.Workload, rows []paperRow) (*Experiment, error) {
	e.Strategies = tableStrategies
	for _, rs := range rows {
		row, err := buildRow(fmt.Sprintf("H=%d S=%d G=%d", rs.h, rs.s, rs.g), wl(rs.h, rs.s, rs.g), top, rs.paper)
		if err != nil {
			return nil, err
		}
		e.Rows = append(e.Rows, row)
	}
	return e, nil
}

// table2Workload is one row of Table 2: 16 GPUs, 32 layers, 64 microbatches.
func table2Workload(h, s, g int) cost.Workload {
	return cost.Workload{H: h, S: s, G: g, L: 32, N: 64, P: 16, Recompute: true}.WithDefaults()
}

// Table2 regenerates the paper's Table 2: throughput and memory for
// Llama-style models on 16 GPUs in two NVLink clusters.
func Table2() (*Experiment, error) {
	top := cluster.NVLinkTwoClusters(16)
	rows := []paperRow{
		{1024, 4096, 16, map[string]paperCell{
			"1f1b": {8581.7, 13.0}, "zb1": {7547.0, 20.4}, "zb2": {7638.5, 39.3},
			"fsdp": {11525.9, 8.6}, "weipipe-interleave": {15138.8, 9.4}}},
		{1024, 8192, 8, map[string]paperCell{
			"1f1b": {7403.8, 9.9}, "zb1": {6739.6, 10.7}, "zb2": {6768.1, 20.5},
			"fsdp": {9424.4, 8.6}, "weipipe-interleave": {12122.3, 9.4}}},
		{1024, 16384, 4, map[string]paperCell{
			"1f1b": {5641.2, 9.1}, "zb1": {5651.6, 21.6}, "zb2": {5651.9, 42.2},
			"fsdp": {6973.6, 8.6}, "weipipe-interleave": {8188.3, 9.4}}},
		{2048, 4096, 16, map[string]paperCell{
			"1f1b": {4163.2, 18.7}, "zb1": {3823.3, 44.3}, "zb2": oomCell,
			"fsdp": {4104.8, 17.9}, "weipipe-interleave": {6499.7, 19.9}}},
		{2048, 8192, 8, map[string]paperCell{
			"1f1b": {3791.3, 19.6}, "zb1": {3517.8, 22.3}, "zb2": oomCell,
			"fsdp": {3706.8, 17.9}, "weipipe-interleave": {6033.2, 19.9}}},
		{2048, 16384, 4, map[string]paperCell{
			"1f1b": {3146.3, 22.9}, "zb1": {3050.1, 42.9}, "zb2": oomCell,
			"fsdp": {3087.2, 17.9}, "weipipe-interleave": {4607.8, 19.9}}},
		{4096, 4096, 16, map[string]paperCell{
			"1f1b": {1662.7, 40.5}, "zb1": oomCell, "zb2": oomCell,
			"fsdp": {1110.5, 39}, "weipipe-interleave": {2023.1, 44.5}}},
		{4096, 8192, 8, map[string]paperCell{
			"1f1b": {1556.2, 41.6}, "zb1": oomCell, "zb2": oomCell,
			"fsdp": {1063.2, 39}, "weipipe-interleave": {2059.4, 44.5}}},
		{4096, 16384, 4, map[string]paperCell{
			"1f1b": {1331.6, 45.1}, "zb1": oomCell, "zb2": oomCell,
			"fsdp": {944.2, 39}, "weipipe-interleave": {1684.9, 44.5}}},
	}
	e := &Experiment{
		ID:          "table2",
		Title:       "Throughput and memory, 16 GPUs, NVLink clusters (paper Table 2)",
		Description: "Llama-style, L=32, heads=32, N=64 microbatches; ZB strategies use G=4 (S=4096) or G=1.",
		ShowMemory:  true,
	}
	return paperTable(e, top, table2Workload, rows)
}

// Table3 regenerates the paper's Table 3: throughput on 16 GPUs with PCIe
// inside clusters and 10 Gb Ethernet between clusters.
func Table3() (*Experiment, error) {
	top := cluster.PCIeEthernet(16, 4)
	rows := []paperRow{
		{1024, 4096, 16, map[string]paperCell{
			"1f1b": {8193, 0}, "zb1": {7708, 0}, "zb2": {7952, 0},
			"fsdp": {11545, 0}, "weipipe-interleave": {13847, 0}}},
		{1024, 16384, 4, map[string]paperCell{
			"1f1b": {5394, 0}, "zb1": {4583, 0}, "zb2": {4630, 0},
			"fsdp": {6764, 0}, "weipipe-interleave": {7551, 0}}},
		{2048, 4096, 16, map[string]paperCell{
			"1f1b": {4030, 0}, "zb1": {3701, 0}, "zb2": oomCell,
			"fsdp": {4205, 0}, "weipipe-interleave": {5587, 0}}},
		{2048, 16384, 4, map[string]paperCell{
			"1f1b": {2907, 0}, "zb1": {2638, 0}, "zb2": oomCell,
			"fsdp": {3150, 0}, "weipipe-interleave": {4151, 0}}},
		{4096, 4096, 16, map[string]paperCell{
			"1f1b": {1530, 0}, "zb1": oomCell, "zb2": oomCell,
			"fsdp": {1186, 0}, "weipipe-interleave": {1402, 0}}},
		{4096, 16384, 4, map[string]paperCell{
			"1f1b": {1232, 0}, "zb1": oomCell, "zb2": oomCell,
			"fsdp": {966, 0}, "weipipe-interleave": {1505, 0}}},
	}
	e := &Experiment{
		ID:          "table3",
		Title:       "Throughput, 16 GPUs, PCIe + 10Gb Ethernet (paper Table 3)",
		Description: "Same models as Table 2 in the communication-constrained environment.",
	}
	return paperTable(e, top, table2Workload, rows)
}

// Table4 regenerates the paper's Table 4: 8 GPUs, all-NVLink, 16 layers —
// the regime where conventional methods can beat WeiPipe. (The paper's
// table is only partially legible in our source; the four rows below are
// the unambiguous ones, in kilo-tokens/s/GPU converted to tokens/s.)
func Table4() (*Experiment, error) {
	top := cluster.NVLinkSingle(8)
	rows := []paperRow{
		{1024, 4096, 16, map[string]paperCell{
			"1f1b": {32000, 0}, "zb1": {45800, 0}, "zb2": {46500, 0},
			"fsdp": {37900, 0}, "weipipe-interleave": {31300, 0}}},
		{2048, 16384, 4, map[string]paperCell{
			"1f1b": {15900, 0}, "zb1": {22000, 0}, "zb2": {22100, 0},
			"fsdp": {17800, 0}, "weipipe-interleave": {16900, 0}}},
		{4096, 4096, 16, map[string]paperCell{
			"1f1b": {5200, 0}, "zb1": oomCell, "zb2": oomCell,
			"fsdp": {6000, 0}, "weipipe-interleave": {4900, 0}}},
		{4096, 16384, 4, map[string]paperCell{
			"1f1b": {3700, 0}, "zb1": oomCell, "zb2": oomCell,
			"fsdp": {3800, 0}, "weipipe-interleave": {3600, 0}}},
	}
	e := &Experiment{
		ID:          "table4",
		Title:       "Throughput, 8 GPUs, NVLink only, L=16 (paper Table 4)",
		Description: "High-bandwidth small-scale regime; WeiPipe's advantage shrinks or inverts.",
	}
	return paperTable(e, top, func(h, s, g int) cost.Workload {
		return cost.Workload{H: h, S: s, G: g, L: 16, N: 32, P: 8, Recompute: true}.WithDefaults()
	}, rows)
}

// Fig5 regenerates the paper's theoretical-analysis figure: throughput and
// bubble behaviour as the activation/weight ratio G·S/(12H) sweeps across
// the crossover, on the Ethernet-joined topology. Row labels carry the
// ratio.
func Fig5() (*Experiment, error) {
	top := cluster.NVLinkEthernet(8, 4)
	e := &Experiment{
		ID:          "fig5",
		Title:       "Activation/weight crossover sweep (paper Fig. 5 analysis)",
		Description: "H=2048, G=4, L=32, P=8; S sweeps the ratio G·S/(12H) across 1.",
		Strategies:  []string{"1f1b", "fsdp", "weipipe-interleave"},
	}
	for _, s := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
		w := cost.Workload{H: 2048, S: s, G: 4, L: 32, N: 32, P: 8, Recompute: true}.WithDefaults()
		row := Row{
			Label: fmt.Sprintf("S=%-5d ratio=%.2f", s, w.WeightRatio()),
			Cells: make(map[string]Cell),
		}
		for _, st := range e.Strategies {
			cell, err := RunCell(st, a800(w, top))
			if err != nil {
				return nil, err
			}
			row.Cells[st] = cell
		}
		e.Rows = append(e.Rows, row)
	}
	return e, nil
}

// scalingExperiment builds a weak- or strong-scaling figure.
func scalingExperiment(id, title string, strategies []string, gpus []int, perServer int,
	layers int, microbatches func(p int) int, h, s, g int) (*Experiment, error) {
	e := &Experiment{
		ID:          id,
		Title:       title,
		Description: fmt.Sprintf("H=%d S=%d G=%d L=%d, %d GPUs/server, Ethernet between servers.", h, s, g, layers, perServer),
		Strategies:  strategies,
	}
	for _, p := range gpus {
		top := cluster.NVLinkEthernet(p, perServer)
		row := Row{Label: fmt.Sprintf("P=%d", p), Cells: make(map[string]Cell)}
		for _, st := range strategies {
			w := cost.Workload{H: h, S: s, G: g, L: layers, N: microbatches(p), P: p, Recompute: true}.WithDefaults()
			cell, err := RunCell(st, a800(w, top))
			if err != nil {
				return nil, err
			}
			row.Cells[st] = cell
		}
		e.Rows = append(e.Rows, row)
	}
	return e, nil
}

// Fig6 regenerates small-scale weak scaling: 4→16 GPUs (4 per server),
// batch 64→256.
func Fig6() (*Experiment, error) {
	return scalingExperiment("fig6",
		"Small-scale weak scaling, 4→16 GPUs, batch 64→256 (paper Fig. 6)",
		tableStrategies, []int{4, 8, 16}, 4, 16,
		func(p int) int { return 16 * p / 4 }, 1024, 8192, 4)
}

// Fig7 regenerates large-scale weak scaling: 8→32 GPUs (8 per server),
// batch 128→512.
func Fig7() (*Experiment, error) {
	return scalingExperiment("fig7",
		"Large-scale weak scaling, 8→32 GPUs, batch 128→512 (paper Fig. 7)",
		[]string{"1f1b", "fsdp", "weipipe-interleave"}, []int{8, 16, 32}, 8, 32,
		func(p int) int { return 32 * p / 8 }, 1024, 8192, 4)
}

// Fig8 regenerates small-scale strong scaling: 4→16 GPUs, batch fixed 128.
func Fig8() (*Experiment, error) {
	return scalingExperiment("fig8",
		"Small-scale strong scaling, 4→16 GPUs, batch fixed 128 (paper Fig. 8)",
		tableStrategies, []int{4, 8, 16}, 4, 16,
		func(int) int { return 32 }, 1024, 8192, 4)
}

// Fig9 regenerates large-scale strong scaling: 8→32 GPUs, batch fixed 256.
func Fig9() (*Experiment, error) {
	return scalingExperiment("fig9",
		"Large-scale strong scaling, 8→32 GPUs, batch fixed 256 (paper Fig. 9)",
		[]string{"1f1b", "fsdp", "weipipe-interleave"}, []int{8, 16, 32}, 8, 32,
		func(int) int { return 64 }, 1024, 8192, 4)
}

// Experiments is every experiment weipipe-bench regenerates, in the order
// `-exp all` prints them. Render returns what `-exp ID` prints; width is a
// schedule diagram's width. A Diagram carries no title of its own, so
// `-exp all` prints "== ID ==" above it.
var Experiments = []struct {
	ID      string
	Diagram bool
	Render  func(width int) (string, error)
}{
	{"fig1", true, Figure1},
	{"fig2", true, Figure2},
	{"fig3", true, Figure3},
	{"fig4", true, Figure4},
	{"fig5", false, table(Fig5)},
	{"table2", false, table(Table2)},
	{"table3", false, table(Table3)},
	{"table4", false, table(Table4)},
	{"fig6", false, table(Fig6)},
	{"fig7", false, table(Fig7)},
	{"fig8", false, table(Fig8)},
	{"fig9", false, table(Fig9)},
	{"ext-bubble", false, table(ExtBubble)},
	{"ext-hybrid", false, table(ExtHybrid)},
	{"wiring", false, func(int) (string, error) { return Wiring() }},
	{"ablations", false, func(int) (string, error) {
		abs, err := Ablations()
		if err != nil {
			return "", err
		}
		return formatAblations(abs), nil
	}},
}

// table renders a regenerated table or figure.
func table(build func() (*Experiment, error)) func(int) (string, error) {
	return func(int) (string, error) {
		e, err := build()
		if err != nil {
			return "", err
		}
		return e.Format(), nil
	}
}
