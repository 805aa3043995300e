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
//	weipipe-train -iters 10 -checkpoint /tmp/m.wpck        # save the weights when done
//	weipipe-train -resume /tmp/m.wpck -iters 5             # train on from those weights
//	weipipe-train -tcp -ckpt-every 5 -max-restarts 3 \
//	    -checkpoint /tmp/m.wpck                            # survive rank failures; re-run to resume
//	weipipe-train -tcp -chaos 0.05 -stats                  # chaos-test the transport
//	weipipe-train -p 4 -strategy wzb2 -trace out.json      # runtime trace + per-iteration rollup
//	weipipe-train -p 4 -strategy wzb2 -guard -stats        # skip non-finite and spiking steps
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"weipipe"
	"weipipe/internal/comm"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// runConfig carries every CLI decision into run().
type runConfig struct {
	strategy    weipipe.Strategy
	p           int
	cfg         weipipe.Config
	opts        weipipe.Options
	sched       optim.Schedule
	iters, n, g int
	tcp         bool
	bf16        bool
	dialTimeout time.Duration
	chaos       float64
	seed        uint64
	ckptPath    string
	ckptEvery   int
	ckptKeep    int
	maxRestarts int
	elastic     weipipe.ElasticPolicy
	spares      int
	watchdog    bool
	stats       bool
	resume      *weipipe.Snapshot
	tracePath   string
	traceSet    *trace.Set
}

func main() {
	strategy := flag.String("strategy", "weipipe-interleave", "training strategy")
	backend := flag.String("backend", "", "tensor kernel backend: auto (default; the fastest this CPU supports), avx512 or avx2 (SIMD, the same bits on 16- or 8-lane GEMM panels; FMA-reassociated matmul, attention, SiLU and the head softmax), scalar (the bit-exact reference)")
	p := flag.Int("p", 2, "workers")
	vocab := flag.Int("vocab", 256, "vocabulary size")
	hidden := flag.Int("hidden", 64, "hidden size")
	layers := flag.Int("layers", 4, "transformer layers")
	heads := flag.Int("heads", 4, "attention heads")
	seq := flag.Int("seq", 64, "sequence length")
	g := flag.Int("g", 2, "microbatch size")
	n := flag.Int("n", 4, "microbatches per iteration")
	iters := flag.Int("iters", 10, "training iterations")
	lr := flag.Float64("lr", 1e-3, "peak learning rate")
	warmup := flag.Int("warmup", 0, "LR warm-up iterations (0 disables the schedule)")
	clip := flag.Float64("clip", 0, "global gradient-norm clip (0 disables)")
	seed := flag.Uint64("seed", 42, "model, data, chaos and bit-flip seed")
	recompute := flag.Bool("recompute", false, "activation checkpointing")
	bf16 := flag.Bool("bf16", false, "bf16 wire codec for weight and weight-gradient belt payloads (halves belt bytes)")
	groupSize := flag.Int("group-size", 0, "ranks per topology group: for -strategy wzb2g, the grouped belt's groups — weight chunks cross a group boundary once per iteration and recirculate on the intra-group fabric (0 = topology-friendly default; sizes that do not divide -p fall back to the flat belt); for -strategy weipipe-dp, the WeiPipe ring size, one data-parallel replica per ring (0 or a size that does not divide -p = one ring of -p); also arms the per-link-tier byte meters shown by -stats for any strategy")
	tcp := flag.Bool("tcp", false, "use a TCP mesh on loopback instead of in-process channels")
	dialTimeout := flag.Duration("dial-timeout", 15*time.Second, "TCP mesh bring-up deadline (with -tcp)")
	chaos := flag.Float64("chaos", 0, "per-frame fault probability for TCP chaos injection: drop, duplicate, reorder (and corrupt at half rate); masked by the reliability layer")
	ckptEvery := flag.Int("ckpt-every", 0, "take a coordinated full-state checkpoint every n iterations (enables failure recovery)")
	ckptKeep := flag.Int("ckpt-keep", 1, "rotate on-disk checkpoints, retaining the last k")
	maxRestarts := flag.Int("max-restarts", 0, "restart from the last checkpoint up to n times after a rank failure")
	elastic := flag.String("elastic", "none", "elastic repair policy on rank failure: none (checkpoint restart), shrink (re-shard across survivors from buddy replicas), spare (admit standby spares)")
	spares := flag.Int("spares", 0, "standby rank budget for -elastic spare")
	watchdog := flag.Bool("watchdog", false, "run the straggler watchdog (reports ranks stalled past 8× the median iteration; with elastic repair on, declares them dead)")
	guard := flag.Bool("guard", false, fmt.Sprintf("skip optimizer steps whose global gradient Σg² is non-finite or spikes (more than %d robust σ above the median of the last %d accepted norms); -stats reports the counts", optim.SpikeThreshold, optim.SpikeWindow))
	integrity := flag.Bool("integrity", false, "end-to-end silent-data-corruption defense: CRC-sealed belt chunks verified at every consumption point plus resident weight/moment guards; detections become typed failures the recovery machinery repairs")
	abft := flag.Bool("abft", false, "algorithm-based fault tolerance on the tensor kernels: every matmul verified against row/column checksums (O(n²) overhead per matmul)")
	bitflipChaos := flag.Int("bitflip-chaos", 0, "inject n seeded bit flips spread across the fault sites (weights, optimizer moments, belt buffers; kernel outputs with -abft) — the SDC chaos tier; combine with -integrity and recovery flags")
	verifyCkpt := flag.String("verify-ckpt", "", "verify checkpoint integrity (whole-file CRC + per-section digests) for this file or every *.wpck in this directory, then exit")
	stats := flag.Bool("stats", false, "print per-rank communication and fault statistics at the end")
	ckpt := flag.String("checkpoint", "", "checkpoint path: with -ckpt-every, the rotating full-state checkpoint (re-running the command resumes from it); else the final weights")
	resume := flag.String("resume", "", "start from this snapshot's weights, with a fresh optimizer at iteration 0 (overrides the model flags)")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this path (per-rank F/B/W, optimizer, stall, belt-lane and transport spans; open in ui.perfetto.dev or feed to weipipe-trace -compare) and print the per-iteration timing rollup (step/F/B/W/opt/exposed means, stall counts, the busiest rank's arena high-water mark)")
	flag.Parse()

	if *verifyCkpt != "" {
		if err := runVerifyCkpt(*verifyCkpt); err != nil {
			fatal(err)
		}
		return
	}

	if *backend != "" {
		if err := tensor.SetBackend(*backend); err != nil {
			fatal(err)
		}
	}
	mode := "bit-exact reference"
	if !tensor.BackendExact() {
		mode = "tolerance mode: matmuls, DotF32, attention, SiLU and the head softmax reassociated; -backend scalar pins the bit-exact reference"
	}
	fmt.Printf("kernel backend: %s (%s; deterministic, strategies stay mutually bit-identical)\n", tensor.BackendName(), mode)

	cfg := weipipe.Config{
		Vocab: *vocab, Hidden: *hidden, Layers: *layers, Heads: *heads,
		MaxSeq: *seq, Seed: *seed,
	}
	var resumeSnap *weipipe.Snapshot
	if *resume != "" {
		snap, err := weipipe.LoadCheckpoint(*resume)
		if err != nil {
			fatal(err)
		}
		cfg = snap.Config
		resumeSnap = &weipipe.Snapshot{Config: snap.Config, Weights: snap.Weights}
		fmt.Printf("resumed config from %s (step %d)\n", *resume, snap.Step)
	}
	opts := weipipe.DefaultOptions(*lr)
	opts.Recompute = *recompute
	opts.GroupSize = *groupSize
	opts.ClipNorm = *clip
	opts.Guard = *guard
	opts.Integrity = *integrity
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
		events := weipipe.GenBitFlips(*seed, *p, *iters, *bitflipChaos, sites)
		inj := weipipe.NewBitFlipInjector(events)
		opts.BitFlip = inj
		if *abft {
			tensor.SetABFTFault(inj.KernelHook())
		}
		fmt.Printf("bit-flip chaos armed: %d scheduled flips (seed %d)\n", len(events), *seed)
	}

	var policy weipipe.ElasticPolicy
	switch *elastic {
	case "none":
		policy = weipipe.ElasticNone
	case "shrink":
		policy = weipipe.ElasticShrink
	case "spare":
		policy = weipipe.ElasticSpare
	default:
		fatal(fmt.Errorf("unknown -elastic policy %q (none, shrink, spare)", *elastic))
	}

	var sched optim.Schedule = optim.ConstantLR(*lr)
	if *warmup > 0 {
		sched = optim.WarmupCosine{Base: *lr, Floor: *lr / 10, Warmup: *warmup, Total: *iters}
	}

	rc := runConfig{
		strategy: weipipe.Strategy(*strategy), p: *p,
		cfg: cfg, opts: opts, sched: sched,
		iters: *iters, n: *n, g: *g,
		tcp: *tcp, bf16: *bf16, dialTimeout: *dialTimeout,
		chaos: *chaos, seed: *seed,
		ckptPath: *ckpt, ckptEvery: *ckptEvery, ckptKeep: *ckptKeep,
		maxRestarts: *maxRestarts, elastic: policy, spares: *spares,
		watchdog: *watchdog,
		stats:    *stats, resume: resumeSnap,
		tracePath: *tracePath,
	}
	if rc.chaos > 0 && !rc.tcp {
		fatal(fmt.Errorf("-chaos injects faults below the TCP reliability layer; it requires -tcp"))
	}
	if rc.tracePath != "" {
		rc.traceSet = trace.NewSet(rc.p, trace.DefaultCapacity)
		rc.opts.Trace = rc.traceSet
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
// its options, and -trace/-stats read its result.
func run(rc runConfig) error {
	mode := ""
	if rc.ckptEvery > 0 || rc.maxRestarts > 0 || rc.elastic != weipipe.ElasticNone || rc.watchdog {
		mode = fmt.Sprintf(" (fault-tolerant: checkpoint every %d, up to %d restarts, elastic %s)",
			rc.ckptEvery, rc.maxRestarts, rc.elastic)
	}
	fmt.Printf("training %s on %d workers%s: %d iterations × %d microbatches of %d×%d tokens\n",
		rc.strategy, rc.p, mode, rc.iters, rc.n, rc.g, rc.cfg.MaxSeq)
	ropts := weipipe.ResilientOptions{
		CheckpointEvery: rc.ckptEvery,
		KeepCheckpoints: rc.ckptKeep,
		MaxRestarts:     rc.maxRestarts,
		Elastic:         rc.elastic,
		Spares:          rc.spares,
		InitialSnapshot: rc.resume,
		LR:              rc.sched.LR,
		OnIteration: func(iter int, loss float64) {
			fmt.Printf("iter %3d  lr %.2e  loss %.4f\n", iter, rc.sched.LR(iter), loss)
		},
		OnRepair: func(ev weipipe.RepairEvent) {
			fmt.Printf("elastic repair (%s): ranks %v died, world %d → %d, resuming at iteration %d from buddy replicas\n",
				ev.Policy, ev.Dead, ev.OldSize, ev.NewSize, ev.Iteration)
		},
	}
	if rc.ckptEvery > 0 {
		// -checkpoint then holds the rotating full-state checkpoint, and
		// one left there by an earlier run resumes it.
		ropts.CheckpointPath = rc.ckptPath
	}
	if rc.watchdog {
		ropts.Watchdog = &weipipe.WatchdogConfig{
			DeclareDead: rc.elastic != weipipe.ElasticNone,
			OnStraggler: func(r weipipe.StragglerReport) {
				fmt.Printf("straggler: rank %d stalled %v at iteration %d microbatch %d phase %c (declared dead: %v)\n",
					r.Rank, r.Stall, r.Iteration, r.Microbatch, r.Phase, r.Declared)
			},
		}
	}
	res, err := weipipe.RunResilient(rc.strategy, rc.p, rc.cfg, rc.opts, rc.iters,
		func(iter int) []weipipe.Batch {
			return weipipe.Microbatches(rc.cfg.Seed+uint64(iter), rc.n, rc.g, rc.cfg.Vocab, rc.cfg.MaxSeq)
		},
		func(attempt, size int) ([]weipipe.Transport, error) {
			if attempt > 0 {
				fmt.Printf("rank failure: rebuilding cluster (attempt %d, %d ranks)\n", attempt, size)
			}
			return buildTransports(rc, size)
		},
		ropts)
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
	if rc.ckptPath != "" && rc.ckptEvery == 0 {
		final := weipipe.BuildModel(rc.cfg)
		weipipe.LoadWeights(final, res.Weights)
		snap := weipipe.SnapshotModel(final)
		snap.Step = int64(rc.iters)
		if err := weipipe.SaveCheckpoint(rc.ckptPath, snap); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", rc.ckptPath)
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
		fmt.Printf("  arena high-water: %d slots (busiest rank)\n", res.ArenaHighWater)
	}
	for r, s := range res.Comm {
		fmt.Printf("  rank %d max in-flight: %d bytes\n", r, s.MaxInFlightBytes())
	}
	if d := rc.traceSet.Dropped(); d > 0 {
		fmt.Printf("  (event ring wrapped: %d oldest events dropped)\n", d)
	}
	blob, err := rc.traceSet.ChromeTrace(&trace.RunMeta{
		Strategy: string(rc.strategy), P: rc.p, N: rc.n,
		Hidden: rc.cfg.Hidden, Layers: rc.cfg.Layers, Seq: rc.cfg.MaxSeq,
		Batch: rc.g, Heads: rc.cfg.Heads, Vocab: rc.cfg.Vocab,
		Iters: rc.iters,
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
	var checks, fails int64
	total := comm.NewStats()
	for r, s := range all {
		fmt.Printf("  rank %d: %s\n", r, s)
		c, f := s.TotalIntegrityChecks()
		checks += c
		fails += f
		total.Add(s)
	}
	if checks > 0 {
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

func buildTransports(rc runConfig, size int) ([]weipipe.Transport, error) {
	var codec weipipe.CodecFunc
	if rc.bf16 {
		codec = weipipe.BeltBF16
	}
	if !rc.tcp {
		cl := comm.NewClusterCodec(size, codec)
		cl.AttachTrace(rc.traceSet)
		return cl.Transports(), nil
	}
	addrs, err := weipipe.LoopbackAddrs(size)
	if err != nil {
		return nil, err
	}
	topts := weipipe.TCPOptions{DialTimeout: rc.dialTimeout, Codec: codec}
	if rc.chaos > 0 {
		topts.Chaos = &weipipe.ChaosConfig{
			Seed:      rc.seed,
			Drop:      rc.chaos,
			Dup:       rc.chaos,
			Reorder:   rc.chaos,
			Corrupt:   rc.chaos / 2,
			DelayProb: rc.chaos,
			MaxDelay:  time.Millisecond,
		}
	}
	transports := make([]weipipe.Transport, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			to := topts
			to.Trace = rc.traceSet.Rank(r)
			transports[r], errs[r] = weipipe.DialTCPOpts(r, addrs, to)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range transports {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
	}
	fmt.Printf("TCP mesh up on %v\n", addrs)
	return transports, nil
}
