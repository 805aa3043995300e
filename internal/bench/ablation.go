package bench

import (
	"fmt"
	"strings"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
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
	makespan := func(ablate func(*schedule.Spec)) (float64, error) {
		spec := ablationSpec()
		if ablate != nil {
			ablate(&spec)
		}
		tasks, err := schedule.Build("weipipe-interleave", spec)
		if err != nil {
			return 0, err
		}
		res, err := sim.Run(tasks)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}
	base, err := makespan(nil)
	if err != nil {
		return nil, err
	}
	out := []Ablation{
		{Key: "wire", Name: "fp16 vs fp32 wire format"},
		{Key: "buffers", Name: "belt buffers 2 vs 1"},
		{Key: "gradring", Name: "D-belt in-transit accumulation vs terminal all-reduce"},
	}
	for i, ablate := range []func(*schedule.Spec){
		func(s *schedule.Spec) { s.WireFP32 = true },
		func(s *schedule.Spec) { s.BeltBuffers = 1 },
		func(s *schedule.Spec) { s.TerminalGradAllReduce = true },
	} {
		t, err := makespan(ablate)
		if err != nil {
			return nil, err
		}
		out[i].Metric, out[i].Value = "speedup_x", t/base
	}
	w := ablationSpec().W
	off := w
	off.Recompute = false
	return append(out, Ablation{
		Key: "recompute", Name: "recomputation on vs off", Metric: "mem_ratio",
		Value: off.MemoryBytes("weipipe-interleave") / w.MemoryBytes("weipipe-interleave"),
		OOM:   !off.FitsMemory("weipipe-interleave", cluster.A800()),
	}), nil
}

// FormatAblations renders the ablations as the experiment "ablations".
func FormatAblations(abs []Ablation) string {
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
