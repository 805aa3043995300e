package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
)

// The sweep is the full strategy×topology×scale grid of the cost model:
// every schedule the simulator understands (including the tp/sp
// model-parallel baselines that have no functional runner) on every
// topology family the cluster package models, at three ring sizes. It
// regenerates BENCH_sweep.json, the machine-readable companion to the
// paper tables of EXPERIMENTS.md — the model is deterministic, so the
// file is committed and CI can diff regenerated output against it.

// sweepStrategies is every strategy the cost model and schedule builder
// both accept, in report order ("serial" exists only as a functional
// runner and has no distributed schedule, so it is not swept).
var sweepStrategies = []string{
	"gpipe", "1f1b", "zb1", "zb2", "dp", "fsdp", "tp", "sp",
	"weipipe-naive", "weipipe-interleave", "wzb1", "wzb2", "wzb2g",
}

// sweepScales are the ring sizes of the grid; divisibility (L%P, N%P)
// holds for all of them under sweepWorkload. The 64-rank row set is the
// grouped-belt scaling point: every topology family is hierarchical there
// (16 servers of 4, or two 32-rank clusters), so it is where wzb2g's
// boundary-traffic dedup has the most links to save.
var sweepScales = []int{4, 8, 16, 64}

// sweepTopologies names the topology families with their constructors.
var sweepTopologies = []struct {
	Name  string
	Build func(p int) cluster.Topology
}{
	{"nvlink-single", cluster.NVLinkSingle},
	{"nvlink-2cluster", cluster.NVLinkTwoClusters},
	{"pcie-ethernet", func(p int) cluster.Topology { return cluster.PCIeEthernet(p, 4) }},
	{"nvlink-ethernet", func(p int) cluster.Topology { return cluster.NVLinkEthernet(p, 4) }},
}

// sweepWorkload is the paper's base configuration (Table 2's first
// column): 7B-ish shape at 4k context, scaled to p workers. Beyond 32
// workers the base shape no longer divides (L%P, N%P), so layers and
// microbatches grow with the ring — the scaling regime of the paper's
// Figures 6–9; LayersAt/MicrobatchesAt in the report record the actual
// values per scale.
func sweepWorkload(p int) cost.Workload {
	l, n := 32, 16
	if p > l {
		l = p
	}
	if p > n {
		n = p
	}
	return cost.Workload{H: 4096, S: 4096, G: 1, L: l, N: n, P: p, Recompute: true}.WithDefaults()
}

// SweepCell is one grid point of the sweep report.
type SweepCell struct {
	Strategy      string  `json:"strategy"`
	Topology      string  `json:"topology"`
	Workers       int     `json:"workers"`
	ThroughputTPS float64 `json:"throughput_tps"`
	MemoryGB      float64 `json:"memory_gb"`
	BubbleRatio   float64 `json:"bubble_ratio"`
	OOM           bool    `json:"oom"`
}

// SweepReport is the serialised sweep. The cost model does no tensor math,
// so nothing about the host enters the report: regenerating it anywhere
// yields the same bytes.
type SweepReport struct {
	Hidden         int         `json:"hidden"`
	SeqLen         int         `json:"seq_len"`
	Layers         int         `json:"layers"`
	LayersAt       map[int]int `json:"layers_at_p,omitempty"`
	MicrobatchesAt map[int]int `json:"microbatches_at_p,omitempty"`
	Cells          []SweepCell `json:"cells"`
}

// RunSweep evaluates the full grid.
func RunSweep() (*SweepReport, error) {
	base := sweepWorkload(sweepScales[0])
	rep := &SweepReport{
		Hidden:         base.H,
		SeqLen:         base.S,
		Layers:         base.L,
		LayersAt:       make(map[int]int),
		MicrobatchesAt: make(map[int]int),
	}
	for _, p := range sweepScales {
		rep.LayersAt[p] = sweepWorkload(p).L
		rep.MicrobatchesAt[p] = sweepWorkload(p).N
	}
	for _, p := range sweepScales {
		w := sweepWorkload(p)
		for _, top := range sweepTopologies {
			t := top.Build(p)
			for _, s := range sweepStrategies {
				cell, err := RunCell(s, w, t)
				if err != nil {
					return nil, fmt.Errorf("sweep %s/%s/p=%d: %w", s, top.Name, p, err)
				}
				rep.Cells = append(rep.Cells, SweepCell{
					Strategy: s, Topology: top.Name, Workers: p,
					ThroughputTPS: cell.ThroughputTPS, MemoryGB: cell.MemoryGB,
					BubbleRatio: cell.BubbleRatio, OOM: cell.OOM,
				})
			}
		}
	}
	return rep, nil
}

// WriteSweep runs the grid and writes BENCH_sweep.json (or path), echoing
// a per-topology winner summary to stdout.
func WriteSweep(path string) error {
	rep, err := RunSweep()
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sweep: %d cells (%d strategies × %d topologies × %d scales)\n",
		len(rep.Cells), len(sweepStrategies), len(sweepTopologies), len(sweepScales))
	type key struct {
		top string
		p   int
	}
	best := make(map[key]SweepCell)
	for _, c := range rep.Cells {
		k := key{c.Topology, c.Workers}
		if !c.OOM && c.ThroughputTPS > best[k].ThroughputTPS {
			best[k] = c
		}
	}
	keys := make([]key, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].top != keys[j].top {
			return keys[i].top < keys[j].top
		}
		return keys[i].p < keys[j].p
	})
	for _, k := range keys {
		c := best[k]
		fmt.Printf("  %-16s p=%-3d best %-18s %8.0f tok/s/gpu (bubble %4.1f%%)\n",
			k.top, k.p, c.Strategy, c.ThroughputTPS, c.BubbleRatio*100)
	}
	fmt.Printf("  written to %s\n", path)
	return nil
}
