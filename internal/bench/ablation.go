package bench

import (
	"fmt"
	"strings"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/schedule"
)

// Ablation is one design choice of the weight belts switched off on the
// ablation workload, and what it costs.
type Ablation struct {
	Key    string  // short name: the benchmark metric's prefix
	Name   string  // what is compared: the ablated choice vs the default
	Metric string  // speedup_x: ablated makespan over the default's; mem_ratio: memory over the default's
	Value  float64 // the metric
	OOM    bool    // the ablated configuration does not fit the GPU
}

// ablationSpec is the communication-sensitive workload the ablations run
// on: weipipe-interleave at H=2048 S=16384 G=4 L=32 N=32 P=8 with
// recomputation, on two NVLink servers of four joined by Ethernet.
func ablationSpec() schedule.Spec {
	w := cost.Workload{H: 2048, S: 16384, G: 4, L: 32, N: 32, P: 8, Recompute: true}.WithDefaults()
	return schedule.Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkEthernet(8, 4)}
}

// Ablations runs the design-choice ablations of the weight belts: fp16
// against fp32 on the wire, double against single belt buffers, the
// gradient belt's in-transit accumulation against a terminal all-reduce,
// and recomputation against keeping every activation.
func Ablations() ([]Ablation, error) {
	run := func(ablate func(*schedule.Spec)) (Cell, error) {
		spec := ablationSpec()
		ablate(&spec)
		return RunCell("weipipe-interleave", spec)
	}
	base, err := run(func(*schedule.Spec) {})
	if err != nil {
		return nil, err
	}
	out := []Ablation{
		{Key: "wire", Name: "fp16 vs fp32 wire format", Metric: "speedup_x"},
		{Key: "buffers", Name: "belt buffers 2 vs 1", Metric: "speedup_x"},
		{Key: "gradring", Name: "D-belt in-transit accumulation vs terminal all-reduce", Metric: "speedup_x"},
		{Key: "recompute", Name: "recomputation on vs off", Metric: "mem_ratio"},
	}
	for i, ablate := range []func(*schedule.Spec){
		func(s *schedule.Spec) { s.WireFP32 = true },
		func(s *schedule.Spec) { s.BeltBuffers = 1 },
		func(s *schedule.Spec) { s.TerminalGradAllReduce = true },
		func(s *schedule.Spec) { s.W.Recompute = false },
	} {
		c, err := run(ablate)
		if err != nil {
			return nil, err
		}
		if out[i].Metric == "speedup_x" {
			out[i].Value = c.IterSec / base.IterSec
		} else {
			out[i].Value, out[i].OOM = c.MemoryGB/base.MemoryGB, c.OOM
		}
	}
	return out, nil
}

// formatAblations renders the ablations as the experiment "ablations".
func formatAblations(abs []Ablation) string {
	var b strings.Builder
	b.WriteString("== ablations: Ablations of the weight belts' design choices ==\n")
	b.WriteString("weipipe-interleave, H=2048 S=16384 G=4 L=32 N=32 P=8 with recomputation, two NVLink servers of 4 joined by Ethernet.\n")
	b.WriteString("Each row puts the default first; speedup_x is the ablated makespan over the default's, mem_ratio the ablated memory over the default's.\n")
	width := len("ablation")
	for _, a := range abs {
		width = max(width, len(a.Name))
	}
	fmt.Fprintf(&b, "%-*s  %-9s  %s\n", width, "ablation", "metric", "result")
	for _, a := range abs {
		result := fmt.Sprintf("%.3f", a.Value)
		if a.OOM {
			result += " (OOM)"
		}
		fmt.Fprintf(&b, "%-*s  %-9s  %s\n", width, a.Name, a.Metric, result)
	}
	return b.String()
}
