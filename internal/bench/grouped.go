package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"weipipe/internal/cluster"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/pipeline"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
)

// The grouped-belt benchmark records the tentpole claim of the wzb2g
// strategy from two independent directions:
//
//   - Simulated: schedule.BuildTraffic's link-tier accounting of the flat
//     (wzb2) versus grouped (wzb2g) belt on hierarchical topologies at
//     16–64 ranks — how many bytes the compiled schedule pushes across
//     group-boundary links per iteration, plus the modelled throughput.
//   - Measured: a functional p=16 in-process cluster run of both
//     strategies with comm.Stats' per-link-tier meters armed
//     (Options.GroupSize), summing each rank's actually-transmitted
//     inter-group bytes, plus a bit-identity verdict over losses and
//     final weights.
//
// Both halves are deterministic (byte counts and modelled times, no wall
// clocks), so BENCH_grouped.json is committed and CI diffs a regenerated
// copy against it, and `-require-grouped-win` can gate on the reduction.

// GroupedSimCell is one simulated grid point.
type GroupedSimCell struct {
	Strategy      string  `json:"strategy"`
	Topology      string  `json:"topology"`
	Workers       int     `json:"workers"`
	GroupSize     int     `json:"group_size"`
	InterBytes    float64 `json:"inter_group_bytes"`
	InterSends    int     `json:"inter_group_sends"`
	IntraBytes    float64 `json:"intra_group_bytes"`
	IntraSends    int     `json:"intra_group_sends"`
	ThroughputTPS float64 `json:"throughput_tps"`
}

// GroupedMeasured is the functional half: both strategies trained on the
// in-process fabric with identical data, group size, and iteration count.
type GroupedMeasured struct {
	Workers   int `json:"workers"`
	GroupSize int `json:"group_size"`
	Iters     int `json:"iters"`

	FlatInterBytes    int64 `json:"flat_inter_group_bytes"`
	FlatInterMsgs     int64 `json:"flat_inter_group_msgs"`
	FlatIntraBytes    int64 `json:"flat_intra_group_bytes"`
	GroupedInterBytes int64 `json:"grouped_inter_group_bytes"`
	GroupedInterMsgs  int64 `json:"grouped_inter_group_msgs"`
	GroupedIntraBytes int64 `json:"grouped_intra_group_bytes"`

	// InterReductionPct is 100·(1 − grouped/flat) over inter-group bytes.
	InterReductionPct float64 `json:"inter_reduction_pct"`
	// BitIdentical reports whether wzb2g reproduced wzb2's losses and final
	// weights bit for bit.
	BitIdentical bool `json:"bit_identical"`
}

// GroupedReport is the serialised benchmark (BENCH_grouped.json).
type GroupedReport struct {
	Simulated []GroupedSimCell `json:"simulated"`
	Measured  GroupedMeasured  `json:"measured"`
}

// groupedSimGrid is the simulated strategy×topology×scale grid: the two
// hierarchical topology families of the paper's scaling studies.
var groupedSimGrid = []struct {
	Name  string
	Build func(p int) cluster.Topology
}{
	{"nvlink-ethernet", func(p int) cluster.Topology { return cluster.NVLinkEthernet(p, 4) }},
	{"pcie-ethernet", func(p int) cluster.Topology { return cluster.PCIeEthernet(p, 4) }},
}

var groupedSimScales = []int{16, 32, 64}

// groupedFunctionalConfig is the measured half's workload: 16 ranks in
// groups of 4 (the smallest scale where cross-group exchange, holder
// rings, and intra-group circulation all have several members), one belt
// round per iteration, a model small enough for 16 in-process ranks.
func groupedFunctionalConfig() (model.Config, pipeline.Options, int, int, int) {
	cfg := model.Config{Vocab: 32, Hidden: 64, Layers: 16, Heads: 4, MaxSeq: 4, Seed: 7}
	opts := pipeline.Options{Adam: optim.DefaultAdamW(0.001), GroupSize: 4}
	return cfg, opts, 16, 16, 2 // p, microbatches, iters
}

// RunGroupedBench produces the full report.
func RunGroupedBench() (*GroupedReport, error) {
	rep := &GroupedReport{}

	for _, p := range groupedSimScales {
		w := sweepWorkload(p)
		for _, topo := range groupedSimGrid {
			top := topo.Build(p)
			for _, s := range []string{"wzb2", "wzb2g"} {
				spec := schedule.Spec{W: w, GPU: cluster.A800(), Top: top}
				tasks, tr, err := schedule.BuildTraffic(s, spec)
				if err != nil {
					return nil, fmt.Errorf("grouped sim %s/%s/p=%d: %w", s, topo.Name, p, err)
				}
				res, err := sim.Run(tasks)
				if err != nil {
					return nil, fmt.Errorf("grouped sim %s/%s/p=%d: %w", s, topo.Name, p, err)
				}
				rep.Simulated = append(rep.Simulated, GroupedSimCell{
					Strategy: s, Topology: top.Name, Workers: p, GroupSize: top.GroupSize(),
					InterBytes: tr.InterBytes, InterSends: tr.InterSends,
					IntraBytes: tr.IntraBytes, IntraSends: tr.IntraSends,
					ThroughputTPS: w.Tokens() / (res.Makespan * float64(p)),
				})
			}
		}
	}

	m, err := measureGroupedTraffic()
	if err != nil {
		return nil, err
	}
	rep.Measured = *m
	return rep, nil
}

// measureGroupedTraffic runs the functional A/B on the in-process fabric.
func measureGroupedTraffic() (*GroupedMeasured, error) {
	cfg, opts, p, n, iters := groupedFunctionalConfig()
	batches := func(i int) []data.Batch {
		return data.Microbatches(uint64(700+i), n, 1, cfg.Vocab, cfg.MaxSeq)
	}
	run := func(s pipeline.Strategy) (*pipeline.ClusterResult, error) {
		return pipeline.RunCluster(s, p, cfg, opts, iters, batches)
	}
	flat, err := run(pipeline.StrategyWZB2)
	if err != nil {
		return nil, fmt.Errorf("grouped bench flat run: %w", err)
	}
	grouped, err := run(pipeline.StrategyWZB2G)
	if err != nil {
		return nil, fmt.Errorf("grouped bench grouped run: %w", err)
	}

	m := &GroupedMeasured{Workers: p, GroupSize: opts.GroupSize, Iters: iters}
	m.FlatInterBytes, m.FlatInterMsgs = flat.TotalComm().InterGroupTraffic()
	m.FlatIntraBytes, _ = flat.TotalComm().IntraGroupTraffic()
	m.GroupedInterBytes, m.GroupedInterMsgs = grouped.TotalComm().InterGroupTraffic()
	m.GroupedIntraBytes, _ = grouped.TotalComm().IntraGroupTraffic()
	if m.FlatInterBytes > 0 {
		m.InterReductionPct = 100 * (1 - float64(m.GroupedInterBytes)/float64(m.FlatInterBytes))
	}
	m.BitIdentical = bitIdenticalRuns(flat, grouped)
	return m, nil
}

// bitIdenticalRuns compares losses and assembled final weights exactly.
func bitIdenticalRuns(a, b *pipeline.ClusterResult) bool {
	if len(a.Losses) != len(b.Losses) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			return false
		}
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}

// CheckGroupedWin validates the report's gating claims: the grouped belt
// must be bit-identical to the flat one and must move strictly fewer bytes
// across group boundaries, both as measured on the wire at p=16 and as
// simulated on nvlink-ethernet at every scale.
func CheckGroupedWin(rep *GroupedReport) error {
	if !rep.Measured.BitIdentical {
		return fmt.Errorf("grouped belt is not bit-identical to flat wzb2")
	}
	if rep.Measured.GroupedInterBytes >= rep.Measured.FlatInterBytes {
		return fmt.Errorf("measured inter-group bytes not reduced: grouped %d ≥ flat %d",
			rep.Measured.GroupedInterBytes, rep.Measured.FlatInterBytes)
	}
	sim := map[string]map[int]map[string]GroupedSimCell{}
	for _, c := range rep.Simulated {
		if sim[c.Topology] == nil {
			sim[c.Topology] = map[int]map[string]GroupedSimCell{}
		}
		if sim[c.Topology][c.Workers] == nil {
			sim[c.Topology][c.Workers] = map[string]GroupedSimCell{}
		}
		sim[c.Topology][c.Workers][c.Strategy] = c
	}
	checked := 0
	for topoName, byP := range sim {
		for p, byS := range byP {
			flat, okF := byS["wzb2"]
			grouped, okG := byS["wzb2g"]
			if !okF || !okG {
				continue
			}
			if grouped.InterBytes >= flat.InterBytes {
				return fmt.Errorf("simulated inter-group bytes not reduced on %s p=%d: grouped %.3g ≥ flat %.3g",
					topoName, p, grouped.InterBytes, flat.InterBytes)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("report has no comparable simulated wzb2/wzb2g cells")
	}
	return nil
}

// WriteGroupedBench runs the benchmark and writes the JSON report to path,
// echoing a human-readable summary.
func WriteGroupedBench(path string) error {
	rep, err := RunGroupedBench()
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
		fmt.Printf("  sim %-16s p=%-3d %-6s inter %10.0f B (%4d sends)  intra %11.0f B  %7.0f tok/s/gpu\n",
			c.Topology, c.Workers, c.Strategy, c.InterBytes, c.InterSends, c.IntraBytes, c.ThroughputTPS)
	}
	meas := rep.Measured
	fmt.Printf("  measured p=%d m=%d ×%d iters: inter %d B → %d B (−%.1f%%), bit-identical %v\n",
		meas.Workers, meas.GroupSize, meas.Iters,
		meas.FlatInterBytes, meas.GroupedInterBytes, meas.InterReductionPct, meas.BitIdentical)
	fmt.Printf("  written to %s\n", path)
	return nil
}

// ReadGroupedReport loads an existing BENCH_grouped.json.
func ReadGroupedReport(path string) (*GroupedReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &GroupedReport{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
