package bench

import (
	"fmt"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
)

// ExtBubble is an extension experiment: asymptotic bubble ratios of every
// pipeline schedule as the microbatch count grows, quantifying the paper's
// §4.2.4 bubble analysis.
func ExtBubble() (*Experiment, error) {
	e := &Experiment{
		ID:          "ext-bubble",
		Title:       "Extension: bubble ratio vs microbatch count (paper §4.2.4 analysis)",
		Description: "H=1024 S=4096 G=4 L=8 P=4, all-NVLink (communication-free regime); cells are bubble %.",
		Strategies:  []string{"gpipe", "1f1b", "zb1", "zb2", "weipipe-naive", "weipipe-interleave", "wzb1", "wzb2"},
	}
	top := cluster.NVLinkSingle(4)
	for _, n := range []int{4, 8, 16, 32} {
		row := Row{Label: fmt.Sprintf("N=%d", n), Cells: make(map[string]Cell)}
		for _, s := range e.Strategies {
			w := cost.Workload{H: 1024, S: 4096, G: 4, L: 8, N: n, P: 4, Recompute: true}.WithDefaults()
			cell, err := RunCell(s, a800(w, top))
			if err != nil {
				return nil, err
			}
			// report bubble in the throughput slot for formatting
			cell.ThroughputTPS = cell.BubbleRatio * 100
			row.Cells[s] = cell
		}
		e.Rows = append(e.Rows, row)
	}
	return e, nil
}

// ExtHybrid quantifies the hybrid WeiPipe×DP composition (implemented
// functionally in pipeline.WeiPipeDP): at large worker counts a single flat
// WeiPipe ring leaves each worker only L/P layers per chunk, so the belts
// saturate the inter-server Ethernet hops; rings of 8 inside each server
// keep the belts on NVLink and pay only one owner-gradient all-reduce
// across replicas per iteration.
func ExtHybrid() (*Experiment, error) {
	const (
		h, s, g, l = 2048, 8192, 4, 32
		nTotal     = 64
		ringSize   = 8
	)
	e := &Experiment{
		ID:          "ext-hybrid",
		Title:       "Extension: flat WeiPipe ring vs hybrid rings-of-8 × data parallel",
		Description: "H=2048 S=8192 G=4 L=32, batch fixed 256 sequences, 8 GPUs/server, Ethernet between servers.",
		Strategies:  []string{"1f1b", "weipipe-interleave", "weipipe-dp8"},
	}
	for _, p := range []int{8, 16, 32} {
		worldTop := cluster.NVLinkEthernet(p, 8)
		row := Row{Label: fmt.Sprintf("P=%d", p), Cells: make(map[string]Cell)}
		flat := cost.Workload{H: h, S: s, G: g, L: l, N: nTotal, P: p, Recompute: true}.WithDefaults()
		for _, st := range []string{"1f1b", "weipipe-interleave"} {
			cell, err := RunCell(st, a800(flat, worldTop))
			if err != nil {
				return nil, err
			}
			row.Cells[st] = cell
		}

		// hybrid: rings of 8 on NVLink, one cross-replica owner all-reduce.
		groups := p / ringSize
		ringW := cost.Workload{H: h, S: s, G: g, L: l, N: nTotal / groups, P: ringSize, Recompute: true}.WithDefaults()
		cell, err := RunCell("weipipe-interleave", a800(ringW, cluster.NVLinkSingle(ringSize)))
		if err != nil {
			return nil, err
		}
		if groups > 1 && !cell.OOM {
			ownChunkBytes := ringW.TotalParams() * 2 / float64(ringSize)
			cross := cluster.Topology{
				Name: "cross", P: groups,
				SendBW:  repeatF(cluster.EthernetBW, groups),
				Latency: repeatF(cluster.EthernetLatency, groups),
			}
			iter := ringW.Tokens()/(cell.ThroughputTPS*float64(ringSize)) + cross.RingAllReduceTime(ownChunkBytes)
			cell.ThroughputTPS = flat.Tokens() / (iter * float64(p))
		}
		row.Cells["weipipe-dp8"] = cell
		e.Rows = append(e.Rows, row)
	}
	return e, nil
}

func repeatF(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
