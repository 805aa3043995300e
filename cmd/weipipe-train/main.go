// weipipe-train runs real distributed training of a Llama-style model on
// CPU: the ranks are goroutines communicating through the in-process
// message fabric (or a TCP mesh on loopback with -tcp), exactly the code
// paths a multi-machine deployment would use. It supports the full training
// loop a production run needs: warm-up + cosine learning-rate schedule,
// global-norm gradient clipping, checkpoint/resume, hybrid WeiPipe×DP
// rings, fault-tolerant execution with periodic coordinated checkpoints and
// restart-on-failure, and a sampled generation at the end.
//
// Examples:
//
//	weipipe-train -strategy weipipe-interleave -p 4 -iters 20
//	weipipe-train -p 4 -wp 2 -iters 10                     # 2 replicas × 2-worker rings
//	weipipe-train -iters 10 -checkpoint /tmp/m.wpck        # save when done
//	weipipe-train -resume /tmp/m.wpck -iters 5             # continue from a snapshot
//	weipipe-train -tcp -ckpt-every 5 -max-restarts 3 \
//	    -checkpoint /tmp/m.wpck                            # survive rank failures
//	weipipe-train -tcp -chaos 0.05 -stats                  # chaos-test the transport
//	weipipe-train -p 4 -strategy wzb2 \
//	    -trace out.json -metrics                           # runtime tracing + rollup
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
	"weipipe/internal/pipeline"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

// runConfig carries every CLI decision into run().
type runConfig struct {
	strategy    weipipe.Strategy
	p, wp       int
	cfg         weipipe.Config
	opts        weipipe.Options
	sched       optim.Schedule
	iters, n, g int
	tcp         bool
	bf16        bool
	dialTimeout time.Duration
	chaos       float64
	chaosSeed   uint64
	ckptPath    string
	ckptEvery   int
	ckptKeep    int
	maxRestarts int
	elastic     weipipe.ElasticPolicy
	spares      int
	watchdog    bool
	stats       bool
	sample      int
	resumeW     []float32
	tracePath   string
	metrics     bool
	traceSet    *trace.Set
}

func main() {
	strategy := flag.String("strategy", "weipipe-interleave", "training strategy")
	backend := flag.String("backend", "", "tensor kernel backend: auto (default; the fastest this CPU supports), avx512 or avx2 (SIMD, the same bits on 16- or 8-lane GEMM panels; FMA-reassociated matmul, attention and SiLU), scalar (the bit-exact reference)")
	p := flag.Int("p", 2, "workers")
	wp := flag.Int("wp", 0, "hybrid mode: WeiPipe ring size (0 = plain strategy; implies weipipe-interleave rings × data parallel)")
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
	seed := flag.Uint64("seed", 42, "model and data seed")
	recompute := flag.Bool("recompute", false, "activation checkpointing")
	mixed := flag.Bool("mixed", false, "fp16/bf16 wire format")
	bf16 := flag.Bool("bf16", false, "bf16 wire codec for weight and weight-gradient belt payloads (halves belt bytes)")
	groupSize := flag.Int("group-size", 0, "ranks per topology group for the grouped belt (-strategy wzb2g): weight chunks cross a group boundary once per iteration and recirculate on the intra-group fabric (0 = topology-friendly default; sizes that do not divide -p fall back to the flat belt); also arms the per-link-tier byte meters shown by -stats for any strategy")
	tcp := flag.Bool("tcp", false, "use a TCP mesh on loopback instead of in-process channels")
	dialTimeout := flag.Duration("dial-timeout", 15*time.Second, "TCP mesh bring-up deadline (with -tcp)")
	chaos := flag.Float64("chaos", 0, "per-frame fault probability for TCP chaos injection: drop, duplicate, reorder (and corrupt at half rate); masked by the reliability layer")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for deterministic chaos injection")
	ckptEvery := flag.Int("ckpt-every", 0, "take a coordinated full-state checkpoint every n iterations (enables failure recovery)")
	ckptKeep := flag.Int("ckpt-keep", 1, "rotate on-disk checkpoints, retaining the last k")
	maxRestarts := flag.Int("max-restarts", 0, "restart from the last checkpoint up to n times after a rank failure")
	elastic := flag.String("elastic", "none", "elastic repair policy on rank failure: none (checkpoint restart), shrink (re-shard across survivors from buddy replicas), spare (admit standby spares)")
	spares := flag.Int("spares", 0, "standby rank budget for -elastic spare")
	watchdog := flag.Bool("watchdog", false, "run the straggler watchdog (reports ranks stalled past 8× the median iteration; with elastic repair on, declares them dead)")
	guard := flag.Bool("guard", false, "skip optimizer steps whose global gradient is non-finite (NaN/Inf)")
	integrity := flag.Bool("integrity", false, "end-to-end silent-data-corruption defense: CRC-sealed belt chunks verified at every consumption point plus resident weight/moment guards; detections become typed failures the recovery machinery repairs")
	abft := flag.Bool("abft", false, "algorithm-based fault tolerance on the tensor kernels: every matmul verified against row/column checksums (O(n²) overhead per matmul)")
	spikeWindow := flag.Int("spike-window", 0, "arm the windowed grad-norm spike detector over the last n accepted norms (0 disables)")
	spikeSkip := flag.Bool("spike-skip", false, "skip optimizer steps the spike detector flags (with -spike-window)")
	bitflipChaos := flag.Int("bitflip-chaos", 0, "inject n seeded bit flips spread across the fault sites (weights, optimizer moments, belt buffers; kernel outputs with -abft) — the SDC chaos tier; combine with -integrity and recovery flags")
	bitflipSeed := flag.Uint64("bitflip-seed", 1, "seed for the deterministic bit-flip schedule")
	verifyCkpt := flag.String("verify-ckpt", "", "verify checkpoint integrity (whole-file CRC + per-section digests) for this file or every *.wpck in this directory, then exit")
	stats := flag.Bool("stats", false, "print per-rank communication and fault statistics at the end")
	ckpt := flag.String("checkpoint", "", "checkpoint path: periodic saves in recovery mode, final snapshot always")
	resume := flag.String("resume", "", "resume from this checkpoint (overrides the model flags)")
	sample := flag.Int("sample", 0, "sample this many tokens from the trained model at the end")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this path (per-rank F/B/W, optimizer, stall, belt-lane and transport spans; open in ui.perfetto.dev or feed to weipipe-trace -compare)")
	metrics := flag.Bool("metrics", false, "print the per-iteration timing rollup (step/F/B/W/opt/exposed means, stall counts, arena high-water marks) at the end")
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
		mode = "tolerance mode: NT matmul, DotF32, attention and SiLU reassociated; -backend scalar pins the bit-exact reference"
	}
	fmt.Printf("kernel backend: %s (%s; deterministic, strategies stay mutually bit-identical)\n", tensor.BackendName(), mode)

	cfg := weipipe.Config{
		Vocab: *vocab, Hidden: *hidden, Layers: *layers, Heads: *heads,
		MaxSeq: *seq, Seed: *seed,
	}
	var resumeWeights []float32
	if *resume != "" {
		snap, err := weipipe.LoadCheckpoint(*resume)
		if err != nil {
			fatal(err)
		}
		cfg = snap.Config
		resumeWeights = snap.Weights
		fmt.Printf("resumed config from %s (step %d)\n", *resume, snap.Step)
	}
	opts := weipipe.DefaultOptions(*lr)
	opts.Recompute = *recompute
	opts.MixedPrecision = *mixed
	opts.BF16Wire = *bf16
	opts.GroupSize = *groupSize
	opts.ClipNorm = *clip
	opts.GuardNonFinite = *guard
	opts.Integrity = *integrity
	opts.SpikeWindow = *spikeWindow
	opts.SpikeSkip = *spikeSkip
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
		events := weipipe.GenBitFlips(*bitflipSeed, *p, *iters, *bitflipChaos, sites)
		inj := weipipe.NewBitFlipInjector(events)
		opts.BitFlip = inj
		if *abft {
			tensor.SetABFTFault(inj.KernelHook())
		}
		fmt.Printf("bit-flip chaos armed: %d scheduled flips (seed %d)\n", len(events), *bitflipSeed)
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
		strategy: weipipe.Strategy(*strategy), p: *p, wp: *wp,
		cfg: cfg, opts: opts, sched: sched,
		iters: *iters, n: *n, g: *g,
		tcp: *tcp, bf16: *bf16, dialTimeout: *dialTimeout,
		chaos: *chaos, chaosSeed: *chaosSeed,
		ckptPath: *ckpt, ckptEvery: *ckptEvery, ckptKeep: *ckptKeep,
		maxRestarts: *maxRestarts, elastic: policy, spares: *spares,
		watchdog: *watchdog,
		stats:    *stats, sample: *sample, resumeW: resumeWeights,
		tracePath: *tracePath, metrics: *metrics,
	}
	if rc.chaos > 0 && !rc.tcp {
		fatal(fmt.Errorf("-chaos injects faults below the TCP reliability layer; it requires -tcp"))
	}
	if rc.tracePath != "" || rc.metrics {
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

func run(rc runConfig) error {
	resilient := rc.ckptEvery > 0 || rc.maxRestarts > 0 || rc.elastic != weipipe.ElasticNone || rc.watchdog
	if resilient {
		if rc.wp > 0 {
			return fmt.Errorf("recovery mode (-ckpt-every/-max-restarts) does not support hybrid -wp rings yet")
		}
		if rc.traceSet != nil {
			return fmt.Errorf("-trace/-metrics are not supported in recovery mode yet (the restart loop rebuilds trainers mid-trace)")
		}
		if rc.resumeW != nil {
			return fmt.Errorf("recovery mode resumes full state from -checkpoint automatically; -resume is for weight-only snapshots")
		}
		return runResilient(rc)
	}
	return runPlain(rc)
}

// runResilient drives training through the fault-tolerant runner: periodic
// coordinated checkpoints, clean abort on rank failure, restart from the
// last checkpoint. An existing full-state file at -checkpoint seeds the run.
func runResilient(rc runConfig) error {
	fmt.Printf("training %s on %d workers (fault-tolerant: checkpoint every %d, up to %d restarts, elastic %s): %d iterations × %d microbatches of %d×%d tokens\n",
		rc.strategy, rc.p, rc.ckptEvery, rc.maxRestarts, rc.elastic, rc.iters, rc.n, rc.g, rc.cfg.MaxSeq)
	ropts := weipipe.ResilientOptions{
		CheckpointEvery: rc.ckptEvery,
		CheckpointPath:  rc.ckptPath,
		KeepCheckpoints: rc.ckptKeep,
		MaxRestarts:     rc.maxRestarts,
		Elastic:         rc.elastic,
		Spares:          rc.spares,
		LR:              rc.sched.LR,
		OnIteration: func(iter int, loss float64) {
			fmt.Printf("iter %3d  lr %.2e  loss %.4f\n", iter, rc.sched.LR(iter), loss)
		},
		OnRepair: func(ev weipipe.RepairEvent) {
			fmt.Printf("elastic repair (%s): ranks %v died, world %d → %d, resuming at iteration %d from buddy replicas\n",
				ev.Policy, ev.Dead, ev.OldSize, ev.NewSize, ev.Iteration)
		},
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
	return finish(rc, res.Weights)
}

// runPlain is the direct lock-step loop (no recovery machinery), including
// hybrid WeiPipe×DP and weight-only resume.
func runPlain(rc runConfig) error {
	transports, err := buildTransports(rc, rc.p)
	if err != nil {
		return err
	}

	trainers := make([]weipipe.Trainer, rc.p)
	{
		var wg sync.WaitGroup
		errs := make([]error, rc.p)
		for r := 0; r < rc.p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if rc.wp > 0 {
					trainers[r], errs[r] = weipipe.NewHybridTrainer(transports[r], rc.cfg, rc.opts, rc.wp)
				} else {
					trainers[r], errs[r] = weipipe.NewTrainer(rc.strategy, transports[r], rc.cfg, rc.opts)
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if rc.resumeW != nil {
		// load the snapshot into every rank's replica buffer; owners pick up
		// their chunks from it on the next iteration's injection.
		for _, tr := range trainers {
			weipipe.LoadWeights(tr.Model(), rc.resumeW)
			if w, ok := tr.(*pipeline.WeiPipe); ok {
				w.ReloadMasterFromModel()
			}
		}
	}

	mode := string(rc.strategy)
	if rc.wp > 0 {
		mode = fmt.Sprintf("hybrid weipipe×dp (%d rings of %d)", rc.p/rc.wp, rc.wp)
	}
	fmt.Printf("training %s on %d workers: %d iterations × %d microbatches of %d×%d tokens\n",
		mode, rc.p, rc.iters, rc.n, rc.g, rc.cfg.MaxSeq)
	for it := 0; it < rc.iters; it++ {
		for _, tr := range trainers {
			if ls, ok := tr.(pipeline.LRSetter); ok {
				ls.SetLR(rc.sched.LR(it))
			}
		}
		batches := weipipe.Microbatches(rc.cfg.Seed+uint64(it), rc.n, rc.g, rc.cfg.Vocab, rc.cfg.MaxSeq)
		losses := make([]float64, rc.p)
		errs := make([]error, rc.p)
		var wg sync.WaitGroup
		for r := 0; r < rc.p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rt := rc.traceSet.Rank(r)
				span := rt.Begin()
				losses[r], errs[r] = trainers[r].TrainIteration(batches)
				rt.End(span, trace.CodeStep, int64(it), 0)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		fmt.Printf("iter %3d  lr %.2e  loss %.4f\n", it, rc.sched.LR(it), losses[0])
	}

	if rc.stats {
		var all []*weipipe.CommStats
		for _, t := range transports {
			if m, ok := t.(interface{ CommStats() *weipipe.CommStats }); ok {
				all = append(all, m.CommStats())
			}
		}
		printStats(all)
	}
	if rc.traceSet != nil {
		if err := writeTraceOutputs(rc, trainers, transports); err != nil {
			return err
		}
	}
	for _, t := range transports {
		t.Close()
	}
	return finish(rc, assemble(trainers, rc.p, rc.wp))
}

// writeTraceOutputs emits the tracer's two products after training: the
// -metrics per-iteration rollup (with arena and in-flight high-water marks)
// and the -trace Chrome JSON with the run's metadata embedded so
// weipipe-trace -compare can rebuild the matching simulated schedule.
func writeTraceOutputs(rc runConfig, trainers []weipipe.Trainer, transports []weipipe.Transport) error {
	if rc.metrics {
		sum := trace.Summarize(trace.PerIteration(rc.traceSet.Events()))
		fmt.Print(sum)
		for r, tr := range trainers {
			if am, ok := tr.(pipeline.ArenaMeter); ok {
				fmt.Printf("  rank %d arena high-water: %d slots\n", r, am.ArenaHighWater())
			}
		}
		for r, t := range transports {
			if m, ok := t.(interface{ CommStats() *weipipe.CommStats }); ok {
				fmt.Printf("  rank %d max in-flight: %d bytes\n", r, m.CommStats().MaxInFlightBytes())
			}
		}
		if d := rc.traceSet.Dropped(); d > 0 {
			fmt.Printf("  (event ring wrapped: %d oldest events dropped)\n", d)
		}
	}
	if rc.tracePath != "" {
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
	}
	return nil
}

// finish writes the final checkpoint and runs the optional sampling pass.
func finish(rc runConfig, weights []float32) error {
	final := weipipe.BuildModel(rc.cfg)
	weipipe.LoadWeights(final, weights)
	if rc.ckptPath != "" {
		snap := weipipe.SnapshotModel(final)
		snap.Step = int64(rc.iters)
		if err := weipipe.SaveCheckpoint(rc.ckptPath, snap); err != nil {
			return err
		}
		fmt.Printf("checkpoint written to %s\n", rc.ckptPath)
	}
	if rc.sample > 0 {
		prompt := weipipe.Microbatches(rc.cfg.Seed, 1, 1, rc.cfg.Vocab, rc.cfg.MaxSeq)[0].Tokens[0][:4]
		out, err := weipipe.Generate(final, prompt, rc.sample, weipipe.GenOptions{Temperature: 0.8, TopK: 8, Seed: 1})
		if err != nil {
			return err
		}
		fmt.Printf("sample: prompt %v → %v\n", prompt, out[len(prompt):])
	}
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
			Seed:      rc.chaosSeed,
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

// assemble gathers the authoritative post-training weights: for hybrid
// runs, replica 0's ring covers the model; otherwise all trainers do.
func assemble(trainers []weipipe.Trainer, p, wp int) []float32 {
	if wp > 0 {
		return pipeline.AssembleWeights(asPipeline(trainers[:wp]))
	}
	return pipeline.AssembleWeights(asPipeline(trainers))
}

func asPipeline(ts []weipipe.Trainer) []pipeline.Trainer {
	out := make([]pipeline.Trainer, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}
