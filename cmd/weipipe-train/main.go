// weipipe-train runs real distributed training of a Llama-style model on
// CPU: the ranks are goroutines communicating through the in-process
// message fabric (or a TCP mesh on loopback with -tcp), exactly the code
// paths a multi-machine deployment would use. It supports the full training
// loop a production run needs: warm-up + cosine learning-rate schedule,
// global-norm gradient clipping, checkpoint/resume, hybrid WeiPipe×DP
// rings, and fault-tolerant execution with periodic coordinated checkpoints
// and restart-on-failure — all under weipipe.RunResilient, which runs the
// one training loop per rank.
//
// Examples:
//
//	weipipe-train -strategy weipipe-interleave -p 4 -iters 20
//	weipipe-train -p 4 -strategy weipipe-dp -group-size 2  # 2 replicas × 2-worker rings
//	weipipe-train -iters 10 -checkpoint /tmp/m.wpck        # save the weights when done;
//	                                                       # re-run to train on from them
//	weipipe-train -tcp -ckpt-every 5 -max-restarts 3 \
//	    -checkpoint /tmp/m.wpck                            # survive rank failures; re-run to resume
//	weipipe-train -tcp -chaos 0.05 -stats                  # chaos-test the transport
//	weipipe-train -p 4 -strategy wzb2 -trace out.json      # runtime trace + per-iteration rollup
//	weipipe-train -p 4 -strategy wzb2 -guard -stats        # skip non-finite and spiking steps
//
// The run's flags are weipipe-launch's (RunSpec.Bind); the rest pick the
// fabric, the fault injection and the reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"weipipe"
	"weipipe/internal/comm"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// runConfig carries every CLI decision into run(): the run itself and the
// flags that are this binary's alone.
type runConfig struct {
	spec      weipipe.RunSpec
	bf16      bool
	watchdog  bool
	stats     bool
	tracePath string
	traceSet  *trace.Set
}

func main() {
	spec := weipipe.RunSpec{
		Strategy: weipipe.WeiPipeInterleave,
		Model:    weipipe.Config{Vocab: 256, Hidden: 64, Layers: 4, Heads: 4, MaxSeq: 64, Seed: 42},
		Options:  weipipe.DefaultOptions(1e-3),
		World:    2, Iters: 10, MicroBatches: 4, MicroBatchSize: 2, CheckpointKeep: 1,
	}
	spec.Bind(flag.CommandLine)
	flag.BoolVar(&spec.TCP, "tcp", false, "use a TCP mesh on loopback instead of in-process channels")
	bf16 := flag.Bool("bf16", false, "bf16 wire codec for weight and weight-gradient belt payloads (halves belt bytes)")
	watchdog := flag.Bool("watchdog", false, "run the straggler watchdog (reports ranks stalled past 8× the median iteration; with elastic repair on, declares them dead)")
	abft := flag.Bool("abft", false, "algorithm-based fault tolerance on the tensor kernels: every matmul verified against row/column checksums (O(n²) overhead per matmul)")
	bitflipChaos := flag.Int("bitflip-chaos", 0, "inject n seeded bit flips spread across the fault sites (weights, optimizer moments, belt buffers; kernel outputs with -abft) — the SDC chaos tier; combine with -integrity and recovery flags")
	verifyCkpt := flag.String("verify-ckpt", "", "verify checkpoint integrity (whole-file CRC + per-section digests) for this file or every *.wpck in this directory, then exit")
	stats := flag.Bool("stats", false, "print per-rank communication and fault statistics at the end")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this path (per-rank F/B/W, optimizer, stall, belt-lane and transport spans; open in ui.perfetto.dev or feed to weipipe-trace -compare) and print the per-iteration timing rollup (step/F/B/W/opt/exposed means, stall counts, the busiest rank's arena high-water mark in slots and MB)")
	flag.Parse()
	spec.BatchSeed = spec.Model.Seed

	if *verifyCkpt != "" {
		if err := runVerifyCkpt(*verifyCkpt); err != nil {
			fatal(err)
		}
		return
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	mode := "bit-exact reference"
	if !tensor.BackendExact() {
		mode = "tolerance mode: matmuls, DotF32, attention, SiLU and the head softmax reassociated; -backend scalar pins the bit-exact reference"
	}
	fmt.Printf("kernel backend: %s (%s; deterministic, strategies stay mutually bit-identical)\n", tensor.BackendName(), mode)

	if *abft {
		weipipe.EnableABFT()
		fmt.Println("ABFT armed: matmul outputs verified against row/column checksums")
	}
	if *bitflipChaos > 0 {
		sites := []weipipe.FlipSite{
			weipipe.FlipWeights, weipipe.FlipMomentM, weipipe.FlipMomentV,
			weipipe.FlipBeltWeight, weipipe.FlipBeltGrad,
		}
		if *abft {
			sites = append(sites, weipipe.FlipKernel)
		}
		events := weipipe.GenBitFlips(spec.Model.Seed, spec.World, spec.Iters, *bitflipChaos, sites)
		inj := weipipe.NewBitFlipInjector(events)
		spec.Options.BitFlip = inj
		if *abft {
			tensor.SetABFTFault(inj.KernelHook())
		}
		fmt.Printf("bit-flip chaos armed: %d scheduled flips (seed %d)\n", len(events), spec.Model.Seed)
	}

	rc := runConfig{
		spec: spec, bf16: *bf16, watchdog: *watchdog, stats: *stats,
		tracePath: *tracePath,
	}
	if rc.tracePath != "" {
		rc.traceSet = trace.NewSet(spec.World, trace.DefaultCapacity)
		rc.spec.Options.Trace = rc.traceSet
	}
	if err := run(rc); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "weipipe-train:", err)
	os.Exit(1)
}

// run trains under weipipe.RunResilient: the recovery flags only fill in
// its spec, and -trace/-stats read its result.
func run(rc runConfig) error {
	spec := rc.spec
	mode := ""
	if spec.CheckpointEvery > 0 || spec.MaxRestarts > 0 || spec.Elastic != weipipe.ElasticNone || rc.watchdog {
		mode = fmt.Sprintf(" (fault-tolerant: checkpoint every %d, up to %d restarts, elastic %s)",
			spec.CheckpointEvery, spec.MaxRestarts, spec.Elastic)
	}
	fmt.Printf("training %s on %d workers%s: %d iterations × %d microbatches of %d×%d tokens\n",
		spec.Strategy, spec.World, mode, spec.Iters, spec.MicroBatches, spec.MicroBatchSize, spec.Model.MaxSeq)
	if _, err := os.Stat(spec.CheckpointPath); spec.CheckpointPath != "" && err == nil {
		fmt.Printf("starting from the checkpoint at %s\n", spec.CheckpointPath)
	}
	build := buildTransports(rc)
	hooks := weipipe.RunHooks{
		OnIteration: func(iter int, loss float64) {
			fmt.Printf("iter %3d  lr %.2e  loss %.4f\n", iter, spec.LR(iter), loss)
		},
		OnRepair: func(ev weipipe.RepairEvent) {
			fmt.Printf("elastic repair (%s): ranks %v died, world %d → %d, resuming at iteration %d from buddy replicas\n",
				ev.Policy, ev.Dead, ev.OldSize, ev.NewSize, ev.Iteration)
		},
		Transports: func(attempt, size int) ([]weipipe.Transport, error) {
			if attempt > 0 {
				fmt.Printf("rank failure: rebuilding cluster (attempt %d, %d ranks)\n", attempt, size)
			}
			return build(attempt, size)
		},
	}
	if rc.watchdog {
		hooks.Watchdog = &weipipe.WatchdogConfig{
			DeclareDead: spec.Elastic != weipipe.ElasticNone,
			OnStraggler: func(r weipipe.StragglerReport) {
				fmt.Printf("straggler: rank %d stalled %v at iteration %d microbatch %d phase %c (declared dead: %v)\n",
					r.Rank, r.Stall, r.Iteration, r.Microbatch, r.Phase, r.Declared)
			},
		}
	}
	res, err := weipipe.RunResilient(spec, hooks)
	if err != nil {
		return err
	}
	if rc.stats {
		printStats(res.Comm)
		fmt.Printf("guard-skipped optimizer steps: %d\n", res.SkippedSteps)
		fmt.Printf("spike-flagged steps: %d\n", res.SpikeSteps)
		fmt.Printf("elastic repairs: %d\n", len(res.Repairs))
	}
	if rc.traceSet != nil {
		if err := writeTrace(rc, res); err != nil {
			return err
		}
	}
	// With -ckpt-every the loop's last checkpoint — the final iteration's,
	// optimizer state included — is already at -checkpoint; only a run
	// that took none writes the weights.
	if spec.CheckpointPath != "" && spec.CheckpointEvery == 0 {
		final := weipipe.BuildModel(spec.Model)
		weipipe.LoadWeights(final, res.Weights)
		snap := weipipe.SnapshotModel(final)
		snap.Step = int64(spec.Iters)
		if err := weipipe.SaveCheckpoint(spec.CheckpointPath, snap); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", spec.CheckpointPath)
	}
	return nil
}

// writeTrace emits the tracer's two products after training: the
// per-iteration rollup (with arena and in-flight high-water marks) and the
// Chrome JSON with the run's metadata embedded so weipipe-trace -compare
// can rebuild the matching simulated schedule.
func writeTrace(rc runConfig, res *weipipe.ClusterResult) error {
	fmt.Print(trace.Summarize(trace.PerIteration(rc.traceSet.Events())))
	if res.ArenaHighWater > 0 {
		fmt.Printf("  arena high-water: %d slots, %.2f MB (the most of any rank)\n", res.ArenaHighWater, float64(res.ArenaBytes)/1e6)
	}
	for r, s := range res.Comm {
		fmt.Printf("  rank %d max in-flight: %d bytes\n", r, s.MaxInFlightBytes())
	}
	if d := rc.traceSet.Dropped(); d > 0 {
		fmt.Printf("  (event ring wrapped: %d oldest events dropped)\n", d)
	}
	spec := rc.spec
	blob, err := rc.traceSet.ChromeTrace(&trace.RunMeta{
		Strategy: string(spec.Strategy), P: spec.World, N: spec.MicroBatches,
		Hidden: spec.Model.Hidden, Layers: spec.Model.Layers, Seq: spec.Model.MaxSeq,
		Batch: spec.MicroBatchSize, Heads: spec.Model.Heads, Vocab: spec.Model.Vocab,
		Iters: spec.Iters,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(rc.tracePath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (open in ui.perfetto.dev, or: weipipe-trace -compare %s)\n",
		rc.tracePath, rc.tracePath)
	return nil
}

// printStats dumps each rank's communication meter, including the per-peer
// fault counters (retransmits, timeouts, reconnects, heartbeat misses,
// CRC-rejected and duplicate frames).
func printStats(all []*weipipe.CommStats) {
	fmt.Println("communication statistics:")
	total := comm.NewStats()
	for r, s := range all {
		fmt.Printf("  rank %d: %s\n", r, s)
		total.Add(s)
	}
	if checks, fails := total.TotalIntegrityChecks(); checks > 0 {
		fmt.Printf("  integrity: %d checks, %d failures detected\n", checks, fails)
	}
	if m := total.GroupSize(); m > 1 {
		intraB, intraM := total.IntraGroupTraffic()
		interB, interM := total.InterGroupTraffic()
		fmt.Printf("  link tiers (groups of %d): intra-group %d bytes / %d msgs, inter-group %d bytes / %d msgs\n",
			m, intraB, intraM, interB, interM)
	}
}

// runVerifyCkpt implements -verify-ckpt: verify one checkpoint file, or
// every *.wpck under a directory, against the whole-file CRC and the
// per-section digests. Any failure exits non-zero after scanning the rest.
func runVerifyCkpt(target string) error {
	info, err := os.Stat(target)
	if err != nil {
		return err
	}
	paths := []string{target}
	if info.IsDir() {
		paths, err = filepath.Glob(filepath.Join(target, "*.wpck"))
		if err != nil {
			return err
		}
		if len(paths) == 0 {
			return fmt.Errorf("no *.wpck files under %s", target)
		}
		sort.Strings(paths)
	}
	bad := 0
	for _, p := range paths {
		sections, digested, err := weipipe.VerifyCheckpoint(p)
		switch {
		case err != nil:
			bad++
			fmt.Printf("%s: FAIL: %v\n", p, err)
		case digested:
			fmt.Printf("%s: ok (%d sections, per-section digests verified)\n", p, len(sections))
		default:
			fmt.Printf("%s: ok (%d sections; pre-digest format, whole-file CRC only)\n", p, len(sections))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d checkpoints failed verification", bad, len(paths))
	}
	fmt.Printf("%d checkpoints verified\n", len(paths))
	return nil
}

// buildTransports is the run's fabric: a loopback TCP mesh under -tcp, else
// the in-process one, each sending under the -bf16 codec.
func buildTransports(rc runConfig) func(attempt, size int) ([]weipipe.Transport, error) {
	var codec weipipe.CodecFunc
	if rc.bf16 {
		codec = weipipe.BeltBF16
	}
	if rc.spec.TCP {
		return rc.spec.LoopbackTCP(codec)
	}
	return func(_, size int) ([]weipipe.Transport, error) {
		cl := comm.NewClusterCodec(size, codec)
		cl.AttachTrace(rc.traceSet)
		return cl.Transports(), nil
	}
}
