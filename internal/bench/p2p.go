package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"weipipe/internal/cluster"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/pipeline"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
)

// The P2P mode benchmark records the transport autotuning claim from two
// independent, fully deterministic directions:
//
//   - Simulated: the compiled schedule's envelope counts and modelled
//     throughput under each P2P link model (frame/batched/duplex/auto) on
//     a flat NVLink ring and the two hierarchical profiles. Under the
//     batched model each tick's forward-belt hop carries the envelope and
//     the same-tick backward/gradient frames ride it — strictly fewer
//     envelope sends for identical bytes, with per-frame dependencies
//     untouched, so modelled throughput never regresses.
//   - Measured: functional in-process runs of every mode against the
//     frame baseline with identical data — a bit-identity verdict plus
//     belt byte/message equality (modes package the wire differently,
//     never change what is sent).
//
// Both halves avoid wall clocks and TCP timing (burst counts over a real
// chaotic socket depend on writer scheduling), so BENCH_p2p.json is
// committed and CI diffs a regenerated copy; `-require-p2p-win` gates on
// the batched send reduction and on every mode's bit-identity.

// P2PSimCell is one simulated grid point.
type P2PSimCell struct {
	Strategy      string  `json:"strategy"`
	Topology      string  `json:"topology"`
	Workers       int     `json:"workers"`
	Mode          string  `json:"mode"`
	LinkSends     int     `json:"link_sends"`
	LinkBytes     float64 `json:"link_bytes"`
	ThroughputTPS float64 `json:"throughput_tps"`
}

// P2PModeMeasured is one mode's functional A/B against the frame baseline.
type P2PModeMeasured struct {
	Mode string `json:"mode"`
	// BeltBytes/BeltMsgs are the run's total transport sends — identical
	// across modes by construction (packaging happens below the meter).
	BeltBytes int64 `json:"belt_bytes"`
	BeltMsgs  int64 `json:"belt_msgs"`
	// BitIdentical reports whether the mode reproduced the frame
	// baseline's losses and final weights bit for bit.
	BitIdentical bool `json:"bit_identical"`
}

// P2PMeasured is the functional half across strategies and modes.
type P2PMeasured struct {
	Workers   int               `json:"workers"`
	GroupSize int               `json:"group_size"`
	Iters     int               `json:"iters"`
	WZB2      []P2PModeMeasured `json:"wzb2"`
	WZB2G     []P2PModeMeasured `json:"wzb2g"`
}

// P2PReport is the serialised benchmark (BENCH_p2p.json).
type P2PReport struct {
	Simulated []P2PSimCell `json:"simulated"`
	Measured  P2PMeasured  `json:"measured"`
}

// p2pModes is the full mode grid.
var p2pModes = []string{"frame", "batched", "duplex", "auto"}

// p2pSimGrid covers a flat fast ring (where duplex/auto should not
// regress) and the paper's two hierarchical profiles (where the
// high-latency boundary links are the batched mode's target).
var p2pSimGrid = []struct {
	Name  string
	Build func(p int) cluster.Topology
}{
	{"nvlink", func(p int) cluster.Topology { return cluster.NVLinkSingle(p) }},
	{"nvlink-ethernet", func(p int) cluster.Topology { return cluster.NVLinkEthernet(p, 4) }},
	{"pcie-ethernet", func(p int) cluster.Topology { return cluster.PCIeEthernet(p, 4) }},
}

// RunP2PBench produces the full report.
func RunP2PBench() (*P2PReport, error) {
	rep := &P2PReport{}

	const p = 16
	// Four belt rounds (N = 4p): batched-mode pairing only exists in the
	// steady state — with a single round every use is warmup or cooldown
	// and no two hops ever share a delivery tick.
	w := sweepWorkload(p)
	w.N = 4 * p
	for _, topo := range p2pSimGrid {
		top := topo.Build(p)
		strategies := []string{"wzb2"}
		if top.GroupSize() > 1 {
			strategies = append(strategies, "wzb2g")
		}
		for _, s := range strategies {
			for _, mode := range p2pModes {
				spec := schedule.Spec{W: w, GPU: cluster.A800(), Top: top, P2PMode: mode}
				tasks, tr, err := schedule.BuildTraffic(s, spec)
				if err != nil {
					return nil, fmt.Errorf("p2p sim %s/%s/%s: %w", s, topo.Name, mode, err)
				}
				res, err := sim.Run(tasks)
				if err != nil {
					return nil, fmt.Errorf("p2p sim %s/%s/%s: %w", s, topo.Name, mode, err)
				}
				rep.Simulated = append(rep.Simulated, P2PSimCell{
					Strategy: s, Topology: top.Name, Workers: p, Mode: mode,
					LinkSends:     tr.InterSends + tr.IntraSends,
					LinkBytes:     tr.InterBytes + tr.IntraBytes,
					ThroughputTPS: w.Tokens() / (res.Makespan * float64(p)),
				})
			}
		}
	}

	m, err := measureP2PModes()
	if err != nil {
		return nil, err
	}
	rep.Measured = *m
	return rep, nil
}

// measureP2PModes runs the functional mode A/B on the in-process fabric:
// every mode must reproduce the frame baseline bit for bit and move the
// same belt bytes (packaging below the meter, payloads unchanged).
func measureP2PModes() (*P2PMeasured, error) {
	cfg := model.Config{Vocab: 32, Hidden: 32, Layers: 8, Heads: 2, MaxSeq: 4, Seed: 11}
	const p, n, iters = 4, 8, 2
	m := &P2PMeasured{Workers: p, GroupSize: 2, Iters: iters}
	batches := func(i int) []data.Batch {
		return data.Microbatches(uint64(900+i), n, 1, cfg.Vocab, cfg.MaxSeq)
	}
	for _, s := range []pipeline.Strategy{pipeline.StrategyWZB2, pipeline.StrategyWZB2G} {
		var baseline *pipeline.ClusterResult
		for _, mode := range p2pModes {
			pm, err := comm.ParseP2PMode(mode)
			if err != nil {
				return nil, err
			}
			opts := pipeline.Options{Adam: optim.DefaultAdamW(0.001), GroupSize: 2, P2PMode: pm}
			res, err := pipeline.RunCluster(s, p, cfg, opts, iters, batches)
			if err != nil {
				return nil, fmt.Errorf("p2p bench %s/%s: %w", s, mode, err)
			}
			cell := P2PModeMeasured{Mode: mode}
			total := res.TotalComm()
			cell.BeltBytes = total.SentBytes(comm.KindWeight) + total.SentBytes(comm.KindGrad)
			cell.BeltMsgs = total.SentMsgs(comm.KindWeight) + total.SentMsgs(comm.KindGrad)
			if baseline == nil {
				baseline = res
				cell.BitIdentical = true
			} else {
				cell.BitIdentical = bitIdenticalRuns(baseline, res)
			}
			switch s {
			case pipeline.StrategyWZB2:
				m.WZB2 = append(m.WZB2, cell)
			default:
				m.WZB2G = append(m.WZB2G, cell)
			}
		}
	}
	return m, nil
}

// CheckP2PWin validates the report's gating claims: every mode must be
// bit-identical to the frame baseline with identical belt traffic, and on
// each high-latency hierarchical profile the batched link model must emit
// strictly fewer link sends than frame without losing modelled throughput
// by more than 1%.
func CheckP2PWin(rep *P2PReport) error {
	for name, cells := range map[string][]P2PModeMeasured{"wzb2": rep.Measured.WZB2, "wzb2g": rep.Measured.WZB2G} {
		if len(cells) == 0 {
			return fmt.Errorf("report has no measured %s cells", name)
		}
		base := cells[0]
		for _, c := range cells {
			if !c.BitIdentical {
				return fmt.Errorf("%s mode %s is not bit-identical to the frame baseline", name, c.Mode)
			}
			if c.BeltBytes != base.BeltBytes || c.BeltMsgs != base.BeltMsgs {
				return fmt.Errorf("%s mode %s changed belt traffic: %d B/%d msgs vs frame's %d B/%d msgs",
					name, c.Mode, c.BeltBytes, c.BeltMsgs, base.BeltBytes, base.BeltMsgs)
			}
		}
	}
	byKey := map[string]map[string]P2PSimCell{}
	for _, c := range rep.Simulated {
		key := c.Topology + "/" + c.Strategy
		if byKey[key] == nil {
			byKey[key] = map[string]P2PSimCell{}
		}
		byKey[key][c.Mode] = c
	}
	checked := 0
	for key, byMode := range byKey {
		frame, okF := byMode["frame"]
		batched, okB := byMode["batched"]
		if !okF || !okB {
			return fmt.Errorf("simulated grid %s lacks a frame/batched pair", key)
		}
		if frame.Topology == "nvlink" {
			continue // flat fast ring: batching is not the win case
		}
		if batched.LinkSends >= frame.LinkSends {
			return fmt.Errorf("simulated %s: batched link sends not reduced: %d ≥ %d",
				key, batched.LinkSends, frame.LinkSends)
		}
		if batched.ThroughputTPS < 0.99*frame.ThroughputTPS {
			return fmt.Errorf("simulated %s: batched throughput regressed: %.0f < %.0f tok/s/gpu",
				key, batched.ThroughputTPS, frame.ThroughputTPS)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("report has no comparable high-latency frame/batched pairs")
	}
	return nil
}

// WriteP2PBench runs the benchmark and writes the JSON report to path,
// echoing a human-readable summary.
func WriteP2PBench(path string) error {
	rep, err := RunP2PBench()
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
	for _, c := range rep.Simulated {
		fmt.Printf("  sim %-16s %-6s %-8s %6d link sends  %12.0f B  %7.0f tok/s/gpu\n",
			c.Topology, c.Strategy, c.Mode, c.LinkSends, c.LinkBytes, c.ThroughputTPS)
	}
	report := func(name string, cells []P2PModeMeasured) {
		for _, c := range cells {
			fmt.Printf("  measured %-6s %-8s belt %10d B / %5d msgs  bit-identical %v\n",
				name, c.Mode, c.BeltBytes, c.BeltMsgs, c.BitIdentical)
		}
	}
	report("wzb2", rep.Measured.WZB2)
	report("wzb2g", rep.Measured.WZB2G)
	fmt.Printf("  written to %s\n", path)
	return nil
}

// ReadP2PReport loads an existing BENCH_p2p.json.
func ReadP2PReport(path string) (*P2PReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &P2PReport{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
