// weipipe-sim runs the performance model for one (strategy, workload,
// topology) configuration and prints throughput, iteration time, bubble
// ratio and the memory estimate.
//
// Example (the paper's Table 2 long-context row):
//
//	weipipe-sim -strategy weipipe-interleave -H 4096 -S 16384 -G 4 -L 32 -N 64 -P 16 -topo nvlink2
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"weipipe"
	"weipipe/internal/cost"
	"weipipe/internal/schedule"
)

func main() {
	strategy := flag.String("strategy", "weipipe-interleave", "strategy: "+strings.Join(schedule.Strategies(), ", "))
	h := flag.Int("H", 2048, "hidden size")
	s := flag.Int("S", 16384, "sequence length")
	g := flag.Int("G", 4, "microbatch size")
	l := flag.Int("L", 32, "layers")
	n := flag.Int("N", 64, "microbatches per iteration")
	p := flag.Int("P", 16, "workers")
	topo := flag.String("topo", "nvlink2", "topology: nvlink, nvlink2, pcie-eth, nvlink-eth")
	perServer := flag.Int("per-server", 8, "GPUs per server for grouped topologies")
	recompute := flag.Bool("recompute", true, "activation checkpointing")
	linkScale := flag.Float64("link-scale", 1, "calibrated link-duration multiplier (from `weipipe-trace -compare`'s suggested link scale)")
	compare := flag.Bool("compare", false, "run every strategy and print a ranked table")
	mtbf := flag.Duration("mtbf", 0, "mean time between failures of the whole cluster (e.g. 6h); when set, prints the Young/Daly-optimal -ckpt-every per strategy")
	ckptBW := flag.Float64("ckpt-bw", 2, "checkpoint write bandwidth in GB/s (for -mtbf)")
	flag.Parse()

	w := weipipe.Workload{H: *h, S: *s, G: *g, L: *l, N: *n, P: *p, Recompute: *recompute}
	var top weipipe.Topology
	switch *topo {
	case "nvlink":
		top = weipipe.NVLinkSingle(*p)
	case "nvlink2":
		top = weipipe.NVLinkTwoClusters(*p)
	case "pcie-eth":
		top = weipipe.PCIeEthernet(*p, *perServer)
	case "nvlink-eth":
		top = weipipe.NVLinkEthernet(*p, *perServer)
	default:
		fmt.Fprintf(os.Stderr, "weipipe-sim: unknown topology %q\n", *topo)
		os.Exit(1)
	}

	if *compare {
		runCompare(w, top, *mtbf, *ckptBW)
		return
	}
	res, err := weipipe.SimulateScaled(weipipe.Strategy(*strategy), w, top, *linkScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "weipipe-sim:", err)
		os.Exit(1)
	}
	fmt.Printf("strategy           %s\n", *strategy)
	fmt.Printf("workload           H=%d S=%d G=%d L=%d N=%d P=%d recompute=%v\n",
		*h, *s, *g, *l, *n, *p, schedule.Recomputes(*strategy, w))
	fmt.Printf("topology           %s\n", top.Name)
	fmt.Printf("memory             %.1f GB\n", res.MemoryGB)
	if res.OOM {
		fmt.Println("result             OOM (exceeds 80 GB A800 budget)")
		return
	}
	fmt.Printf("iteration time     %.3f s\n", res.IterationSeconds)
	fmt.Printf("throughput         %.0f tokens/s/GPU\n", res.TokensPerSecPerGPU)
	fmt.Printf("bubble ratio       %.1f %%\n", res.BubbleRatio*100)
	if *mtbf > 0 {
		ckptSec, every := ckptPlan(w, res.IterationSeconds, *mtbf, *ckptBW)
		fmt.Printf("checkpoint         %.1f GB, %.1f s to write at %.1f GB/s\n",
			w.CheckpointBytes()/(1<<30), ckptSec, *ckptBW)
		fmt.Printf("recommended        -ckpt-every %d  (Young/Daly for MTBF %s; with -elastic shrink/spare the checkpoint only backstops double failures — stretch it)\n",
			every, mtbf)
	}
}

// ckptPlan returns the checkpoint write time and the Young/Daly-optimal
// checkpoint cadence in iterations for one strategy's simulated iteration
// time.
func ckptPlan(w weipipe.Workload, iterSec float64, mtbf time.Duration, bwGB float64) (float64, int) {
	ckptSec := w.CheckpointBytes() / (bwGB * 1e9)
	return ckptSec, cost.OptimalCheckpointIters(iterSec, ckptSec, mtbf.Seconds())
}

// runCompare simulates every strategy the schedule builder compiles on the
// workload and prints them ranked by throughput (OOMs last, ties in
// schedule.Strategies order). With mtbf set, a Young/Daly
// recommended -ckpt-every column is added per strategy.
func runCompare(w weipipe.Workload, top weipipe.Topology, mtbf time.Duration, ckptBW float64) {
	type row struct {
		s   weipipe.Strategy
		res weipipe.SimResult
	}
	var rows []row
	for _, name := range schedule.Strategies() {
		s := weipipe.Strategy(name)
		res, err := weipipe.Simulate(s, w, top)
		if err != nil {
			fmt.Fprintf(os.Stderr, "weipipe-sim: %s: %v\n", s, err)
			continue
		}
		rows = append(rows, row{s, res})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].res.OOM != rows[j].res.OOM {
			return !rows[i].res.OOM
		}
		return rows[i].res.TokensPerSecPerGPU > rows[j].res.TokensPerSecPerGPU
	})
	ckptCol := ""
	if mtbf > 0 {
		ckptCol = "  ckpt-every"
	}
	fmt.Printf("%-20s %14s %10s %9s%s\n", "strategy", "tokens/s/GPU", "memory", "bubble", ckptCol)
	for _, r := range rows {
		if r.res.OOM {
			fmt.Printf("%-20s %14s %9.1fG %9s\n", r.s, "OOM", r.res.MemoryGB, "-")
			continue
		}
		extra := ""
		if mtbf > 0 {
			_, every := ckptPlan(w, r.res.IterationSeconds, mtbf, ckptBW)
			extra = fmt.Sprintf(" %11d", every)
		}
		fmt.Printf("%-20s %14.0f %9.1fG %8.1f%%%s\n",
			r.s, r.res.TokensPerSecPerGPU, r.res.MemoryGB, r.res.BubbleRatio*100, extra)
	}
	if mtbf > 0 {
		fmt.Printf("\ncheckpoint %.1f GB, %.1f s at %.1f GB/s; -ckpt-every is the Young/Daly optimum for MTBF %s\n",
			w.CheckpointBytes()/(1<<30), w.CheckpointBytes()/(ckptBW*1e9), ckptBW, mtbf)
	}
}
