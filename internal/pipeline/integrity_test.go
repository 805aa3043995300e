package pipeline

import (
	"errors"
	"sync"
	"testing"

	"weipipe/internal/checkpoint"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/order"
	"weipipe/internal/tensor"
)

// End-to-end SDC defense: every injected bit flip must be detected at a
// consumption point and surface as a typed *comm.IntegrityError — never
// silently absorbed into training state — and a repaired run must land on
// the fault-free trajectory bit-identically.

func integrityOpts() Options {
	opts := eqOpts()
	opts.Integrity = true
	return opts
}

// TestIntegrityCleanRunUnperturbed: with integrity armed and no faults,
// training must be bit-identical to the undefended run — the seal rounds
// through the identity (f32) or the codec the payload was going through
// anyway (bf16) — and the meters must show the checks happening.
func TestIntegrityCleanRunUnperturbed(t *testing.T) {
	const p, iters, n = 2, 4, 4
	for _, wire := range []struct {
		name  string
		codec comm.CodecFunc
	}{{"f32", nil}, {"bf16", comm.BeltBF16}} {
		t.Run(wire.name, func(t *testing.T) {
			ref := runCodec(t, StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n), wire.codec)
			res := runCodec(t, StrategyWZB2, p, eqCfg(), integrityOpts(), iters, eqBatches(iters, n), wire.codec)
			bitIdentical(t, "integrity on vs off", res.Losses, ref.Losses, res.Weights, ref.Weights)

			total := res.TotalComm()
			checks, fails := total.TotalIntegrityChecks()
			if checks == 0 {
				t.Fatal("integrity run recorded no checks; defense was a no-op")
			}
			if fails != 0 {
				t.Fatalf("clean run recorded %d integrity failures", fails)
			}
			for _, k := range []comm.Kind{comm.KindWeight, comm.KindGrad, comm.KindCtl} {
				if total.IntegrityChecks(k) == 0 {
					t.Errorf("no %v integrity checks recorded", k)
				}
			}
			// The undefended run must not pay for the machinery.
			refChecks, _ := ref.TotalComm().TotalIntegrityChecks()
			if refChecks != 0 {
				t.Fatalf("integrity-off run recorded %d checks", refChecks)
			}
		})
	}
}

// TestIntegrityDetectsEverysite plants one flip per site and demands a
// typed detection at the documented site, with nothing absorbed.
func TestIntegrityDetectsEverySite(t *testing.T) {
	const p, iters, n = 2, 4, 4
	cases := []struct {
		site     FlipSite
		wantSite comm.IntegritySite
	}{
		{FlipWeights, comm.SiteWeights},
		{FlipMomentM, comm.SiteMoments},
		{FlipMomentV, comm.SiteMoments},
		{FlipBeltWeight, comm.SiteBelt},
		{FlipBeltGrad, comm.SiteRetire},
	}
	for _, tc := range cases {
		t.Run(tc.site.String(), func(t *testing.T) {
			inj := NewBitFlipInjector([]BitFlipEvent{
				{Rank: 1, Iter: 2, Site: tc.site, Word: 12345, Bit: 23},
			})
			opts := integrityOpts()
			opts.BitFlip = inj
			// RunResilient with a zero restart budget: the typed error must
			// fail the run cleanly (RunCluster has no failure propagation).
			spec := eqSpec(StrategyWZB2, p, iters, n)
			spec.Options = opts
			_, err := RunResilient(spec, RunHooks{})
			if err == nil {
				t.Fatal("injected flip was silently absorbed")
			}
			if !errors.Is(err, comm.ErrIntegrity) {
				t.Fatalf("flip surfaced as untyped error: %v", err)
			}
			var ie *comm.IntegrityError
			if !errors.As(err, &ie) {
				t.Fatalf("no *IntegrityError in chain: %v", err)
			}
			if ie.Site != tc.wantSite {
				t.Fatalf("detected at %v, want %v (err: %v)", ie.Site, tc.wantSite, err)
			}
			if inj.Fired() != 1 {
				t.Fatalf("injector fired %d events, want 1", inj.Fired())
			}
		})
	}
}

// TestIntegrityDetectsFlipOnSelfServedUse: a belt-weight flip on a use the
// rank serves from its own copy — the owner's on the flat belt, the
// holder's on the grouped one — is caught at the belt site, by the rank and
// on the chunk it struck, exactly as on a copy that came off the belt. The
// flip takes the rank's first gather of the iteration, its F on chunk 0.
func TestIntegrityDetectsFlipOnSelfServedUse(t *testing.T) {
	const iters = 4
	for _, tc := range []struct {
		s          Strategy
		p, n, rank int
	}{
		{StrategyWZB2, 2, 4, 1},  // rank 1 owns chunk 0
		{StrategyWZB2G, 4, 8, 2}, // in groups of 2, rank 2 holds chunk 0
	} {
		m := map[Strategy]int{StrategyWZB2: 1, StrategyWZB2G: 2}[tc.s]
		plan, err := order.BeltPlan(string(tc.s), tc.rank, tc.p, tc.n, m)
		if err != nil {
			t.Fatal(err)
		}
		if first := plan[0]; !first.Gather || first.Chunk != 0 || !order.Holds(tc.rank, 0, tc.p, m) {
			t.Fatalf("%s: rank %d's first gather %v is not of a chunk it holds", tc.s, tc.rank, first)
		}
		inj := NewBitFlipInjector([]BitFlipEvent{{Rank: tc.rank, Iter: 2, Site: FlipBeltWeight, Word: 12345, Bit: 23}})
		opts := integrityOpts()
		opts.BitFlip, opts.GroupSize = inj, 2
		spec := eqSpec(tc.s, tc.p, iters, tc.n)
		spec.Options = opts
		_, err = RunResilient(spec, RunHooks{})
		var ie *comm.IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: flip surfaced as %v, want an integrity error", tc.s, err)
		}
		if ie.Site != comm.SiteBelt || ie.Kind != comm.KindWeight || ie.Rank != tc.rank || ie.Chunk != 0 {
			t.Errorf("%s: detected %v on rank %d chunk %d, want the belt site on rank %d chunk 0",
				tc.s, ie.Site, ie.Rank, ie.Chunk, tc.rank)
		}
		if inj.Fired() != 1 {
			t.Errorf("%s: injector fired %d events, want 1", tc.s, inj.Fired())
		}
	}
}

// TestIntegrityDetectsKernelFlip: a bit flip planted in a matmul output
// via the ABFT fault hook must surface as a SiteKernel integrity error.
func TestIntegrityDetectsKernelFlip(t *testing.T) {
	const p, iters, n = 2, 4, 4
	inj := NewBitFlipInjector([]BitFlipEvent{
		{Rank: 0, Iter: 2, Site: FlipKernel, Word: 777, Bit: 30},
	})
	tensor.EnableABFT()
	tensor.SetABFTFault(inj.KernelHook())
	defer func() {
		tensor.SetABFTFault(nil)
		tensor.DisableABFT()
	}()
	opts := integrityOpts()
	opts.BitFlip = inj
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.Options = opts
	_, err := RunResilient(spec, RunHooks{})
	if err == nil {
		t.Fatal("kernel flip was silently absorbed")
	}
	var ie *comm.IntegrityError
	if !errors.As(err, &ie) || ie.Site != comm.SiteKernel {
		t.Fatalf("kernel flip surfaced as %v, want SiteKernel", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d events, want 1", inj.Fired())
	}
}

// TestIntegrityRepairBitIdentical: detection must feed the existing repair
// machinery — a detected resident-state flip restarts from the checkpoint,
// the replay (in which the one-shot injector stays quiet) must land on the
// fault-free trajectory bit-identically.
func TestIntegrityRepairBitIdentical(t *testing.T) {
	const p, iters, n = 2, 6, 4
	opts := integrityOpts()
	opts.Guard = true // exercise spike snapshot/restore across the restart
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	inj := NewBitFlipInjector([]BitFlipEvent{
		{Rank: 1, Iter: 3, Site: FlipWeights, Word: 999, Bit: 27},
	})
	faulted := opts
	faulted.BitFlip = inj
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.Options = faulted
	spec.CheckpointEvery = 2
	spec.MaxRestarts = 1
	res, err := RunResilient(spec, RunHooks{})
	if err != nil {
		t.Fatalf("repair failed: %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatal("scheduled flip never fired; the test proved nothing")
	}
	bitIdentical(t, "integrity repair", res.Losses, ref.Losses, res.Weights, ref.Weights)
	if res.SpikeSteps != ref.SpikeSteps {
		t.Fatalf("SpikeSteps %d after repair, reference %d", res.SpikeSteps, ref.SpikeSteps)
	}
}

// TestIntegrityElasticShrinkOnFlip: under an elastic policy the detecting
// rank offers itself as evidence and the survivors rebuild its shard from
// the buddy replica — a memory flip is repaired like a rank death, without
// reading a checkpoint.
func TestIntegrityElasticShrinkOnFlip(t *testing.T) {
	const p, iters, n = 3, 6, 6
	opts := integrityOpts()
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	inj := NewBitFlipInjector([]BitFlipEvent{
		{Rank: 1, Iter: 3, Site: FlipMomentV, Word: 4242, Bit: 29},
	})
	faulted := opts
	faulted.BitFlip = inj
	var repaired []RepairEvent
	spec := eqSpec(StrategyWZB2, p, iters, n)
	spec.Options = faulted
	spec.Elastic = ElasticShrink
	spec.MaxRestarts = 1
	res, err := RunResilient(spec, RunHooks{
		OnRepair: func(ev RepairEvent) { repaired = append(repaired, ev) },
	})
	if err != nil {
		t.Fatalf("elastic repair failed: %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatal("scheduled flip never fired")
	}
	if len(repaired) != 1 {
		t.Fatalf("%d repairs, want 1", len(repaired))
	}
	ev := repaired[0]
	if ev.Policy != ElasticShrink || ev.NewSize != p-1 {
		t.Fatalf("repair %+v, want shrink to %d", ev, p-1)
	}
	if len(ev.Dead) != 1 || ev.Dead[0] != 1 {
		t.Fatalf("dead set %v, want [1] (the detecting rank's state is suspect)", ev.Dead)
	}
	// Iterations completed before the cut are bit-identical to the
	// fault-free 3-rank run; the continuation at the new world size stays
	// within the cross-world float-reassociation envelope.
	for i := 0; i < ev.Iteration; i++ {
		if res.Losses[i] != ref.Losses[i] {
			t.Fatalf("pre-cut loss %d: %v != %v", i, res.Losses[i], ref.Losses[i])
		}
	}
	if len(res.Weights) != len(ref.Weights) {
		t.Fatalf("weights %d, want %d", len(res.Weights), len(ref.Weights))
	}
	if d := maxAbsDiff(res.Weights, ref.Weights); d > 5e-4 {
		t.Fatalf("post-repair weights drift %g from fault-free reference", d)
	}
}

// TestSpikeCleanEquivalence: the guard must not perturb a healthy run on
// any strategy — identical trajectory, zero flags — with enough iterations
// to fill its spike window.
func TestSpikeCleanEquivalence(t *testing.T) {
	const iters, n = optim.SpikeWindow + 2, 4
	type run struct {
		s            Strategy
		p, groupSize int
	}
	runs := []run{{StrategySerial, 1, 0}, {StrategyWeiPipeDP, 4, 2}}
	for _, s := range Strategies() {
		runs = append(runs, run{s, 2, 0})
	}
	for _, r := range runs {
		t.Run(string(r.s), func(t *testing.T) {
			t.Parallel()
			opts := eqOpts()
			opts.GroupSize = r.groupSize
			ref, err := RunCluster(r.s, r.p, eqCfg(), opts, iters, eqBatches(iters, n))
			if err != nil {
				t.Fatal(err)
			}
			opts.Guard = true
			res, err := RunCluster(r.s, r.p, eqCfg(), opts, iters, eqBatches(iters, n))
			if err != nil {
				t.Fatal(err)
			}
			bitIdentical(t, "guard on vs off", res.Losses, ref.Losses, res.Weights, ref.Weights)
			if res.SpikeSteps != 0 || res.SkippedSteps != 0 {
				t.Fatalf("healthy run flagged %d spike steps, skipped %d", res.SpikeSteps, res.SkippedSteps)
			}
		})
	}
}

// TestGuardQuietWhileWindowFills: at weipipe-train's default shape and seed
// 7 the early gradient norms drift fast enough that a window of a few norms
// reads the drift as spikes. The guard gives a finite verdict only over a
// full window, so this healthy run skips nothing.
func TestGuardQuietWhileWindowFills(t *testing.T) {
	const p, iters, n, g = 2, 20, 4, 2
	cfg := model.Config{Vocab: 256, Hidden: 64, Layers: 4, Heads: 4, MaxSeq: 64, Seed: 7}
	batches := func(iter int) []data.Batch {
		return data.Microbatches(cfg.Seed+uint64(iter), n, g, cfg.Vocab, cfg.MaxSeq)
	}
	for _, s := range []Strategy{StrategyWZB2, Strategy1F1B} {
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			opts := Options{Adam: optim.DefaultAdamW(1e-3), Guard: true}
			res, err := RunCluster(s, p, cfg, opts, iters, batches)
			if err != nil {
				t.Fatal(err)
			}
			if res.SkippedSteps != 0 || res.SpikeSteps != 0 {
				t.Fatalf("healthy run skipped %d steps, %d of them spikes", res.SkippedSteps, res.SpikeSteps)
			}
		})
	}
}

// TestSpikeFlagsCorruptedGradients: with belt integrity off, a high-bit
// flip in a retiring gradient inflates that step's norm to a finite but
// absurd value (the sum of squares accumulates in float64, so even ~1e34
// gradient elements square without overflowing); the guard's spike detector
// is the second line of defense and must flag the step and refuse to feed
// it to the optimizer.
func TestSpikeFlagsCorruptedGradients(t *testing.T) {
	const p, iters, n = 2, 8, 4
	inj := NewBitFlipInjector([]BitFlipEvent{
		{Rank: 0, Iter: 4, Site: FlipBeltGrad, Word: 31, Bit: 30},
	})
	opts := eqOpts()
	opts.Guard = true
	opts.BitFlip = inj // integrity OFF: the flip sails into the step
	res, err := RunCluster(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 1 {
		t.Fatal("scheduled flip never fired")
	}
	if res.SpikeSteps != 1 {
		t.Fatalf("SpikeSteps = %d, want exactly the corrupted step", res.SpikeSteps)
	}
	if res.SkippedSteps != 1 {
		t.Fatalf("SkippedSteps = %d, want the flagged step skipped", res.SkippedSteps)
	}
	// The skip kept the corruption out of the weights: training continues
	// on finite losses.
	for i, l := range res.Losses {
		if l != l {
			t.Fatalf("loss %d is NaN; the corrupt step leaked into the weights", i)
		}
	}
}

// TestSpikeFlagsLRBlowUp: the belt bit-flip sites reach WeiPipe alone, so
// the activation-passing and sharded strategies get their inflated norms
// from a single-iteration learning-rate spike instead. The spiked step
// itself trains on a healthy gradient; the weights it leaves behind make
// every later Σg² spike, and since flagged norms never enter the window the
// guard keeps flagging and skipping them. The guarded run must therefore
// end on the exact weights of a run that stopped right after the spiked
// step.
func TestSpikeFlagsLRBlowUp(t *testing.T) {
	const iters, n, spikeAt = optim.SpikeWindow + 4, 4, optim.SpikeWindow + 1
	for _, s := range []Strategy{Strategy1F1B, StrategyFSDP} {
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			const p = 2
			opts := eqOpts()
			opts.Guard = true
			losses, trainers := spikeTrained(t, s, p, opts, nil, iters, n, spikeAt)
			if want := iters - spikeAt - 1; trainers[0].SpikeSteps() != want || trainers[0].SkippedSteps() != want {
				t.Fatalf("SpikeSteps %d, SkippedSteps %d: want every one of the %d steps after the LR spike flagged and skipped",
					trainers[0].SpikeSteps(), trainers[0].SkippedSteps(), want)
			}
			stoppedLosses, stopped := spikeTrained(t, s, p, opts, nil, spikeAt+1, n, spikeAt)
			bitIdentical(t, "guarded run vs run stopped after the spike",
				losses[:spikeAt+1], stoppedLosses, AssembleWeights(trainers), AssembleWeights(stopped))
		})
	}
}

// spikeTrained trains s by hand on p in-process ranks, from snap (nil:
// fresh) up to iteration iters, with the learning rate spiked a thousandfold
// at iteration spikeAt — a schedule no RunSpec expresses. It returns rank
// 0's losses (zero before snap's step) and the trainers.
func spikeTrained(t *testing.T, s Strategy, p int, opts Options, snap *checkpoint.Snapshot,
	iters, n, spikeAt int) ([]float64, []Trainer) {
	t.Helper()
	trainers := handTrained(t, s, p, opts, 0, nil)
	start := 0
	if snap != nil {
		if err := RestoreSnapshot(snap, trainers); err != nil {
			t.Fatal(err)
		}
		start = int(snap.Step)
	}
	batches := eqBatches(iters, n)
	losses := make([]float64, iters)
	for i := start; i < iters; i++ {
		lr := opts.Adam.LR
		if i == spikeAt {
			lr *= 1000
		}
		var wg sync.WaitGroup
		for r, tr := range trainers {
			tr.SetLR(lr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				loss, err := tr.TrainIteration(batches(i))
				if err != nil {
					t.Error(err)
				}
				if r == 0 {
					losses[i] = loss
				}
			}()
		}
		wg.Wait()
	}
	return losses, trainers
}

// TestGuardResumeBitIdentical: the guard's window rides in the checkpoint of
// every trainer that can checkpoint, so a guarded run resumed from one
// flags exactly the steps an uninterrupted run flags. The resume lands
// right before an LR spike whose aftermath only a restored window can
// judge: a fresh one has no baseline and would admit the blown-up norms.
func TestGuardResumeBitIdentical(t *testing.T) {
	const iters, n, cut = optim.SpikeWindow + 4, 4, optim.SpikeWindow + 1
	runs := []struct {
		s            Strategy
		p, groupSize int
	}{{StrategySerial, 1, 0}, {StrategyWZB2, 2, 0}, {StrategyWeiPipeDP, 4, 2}}
	for _, r := range runs {
		t.Run(string(r.s), func(t *testing.T) {
			t.Parallel()
			opts := eqOpts()
			opts.Guard = true
			opts.GroupSize = r.groupSize
			wholeLosses, whole := spikeTrained(t, r.s, r.p, opts, nil, iters, n, cut)
			if whole[0].SpikeSteps() == 0 {
				t.Fatal("no step spiked after the LR spike; the test proves nothing")
			}
			_, first := spikeTrained(t, r.s, r.p, opts, nil, cut, n, cut)
			snap, err := CaptureSnapshot(first, cut)
			if err != nil {
				t.Fatal(err)
			}
			restLosses, rest := spikeTrained(t, r.s, r.p, opts, snap, iters, n, cut)
			bitIdentical(t, "resumed vs uninterrupted guarded run",
				restLosses[cut:], wholeLosses[cut:], AssembleWeights(rest), AssembleWeights(whole))
			if rest[0].SpikeSteps() != whole[0].SpikeSteps() ||
				rest[0].SkippedSteps() != whole[0].SkippedSteps()-first[0].SkippedSteps() {
				t.Fatalf("resumed run: %d spikes, %d skips; uninterrupted: %d spikes, %d skips",
					rest[0].SpikeSteps(), rest[0].SkippedSteps(), whole[0].SpikeSteps(), whole[0].SkippedSteps())
			}
		})
	}
}

// TestIntegrityWeiPipeDPOverBF16Fabric: the hybrid's rings run on
// comm.Group views of the world transport, so a seal taken inside a ring
// must round through the codec the world fabric actually sends under. The
// group answers the codec question for its parent; a ring that sealed in
// the f32 domain would fail verification on the first bf16 belt hop.
func TestIntegrityWeiPipeDPOverBF16Fabric(t *testing.T) {
	const p, iters, n = 4, 3, 8
	opts := eqOpts()
	opts.GroupSize = 2
	ref := runCodec(t, StrategyWeiPipeDP, p, eqCfg(), opts, iters, eqBatches(iters, n), comm.BeltBF16)
	opts.Integrity = true
	res := runCodec(t, StrategyWeiPipeDP, p, eqCfg(), opts, iters, eqBatches(iters, n), comm.BeltBF16)
	bitIdentical(t, "weipipe-dp integrity on vs off over bf16", res.Losses, ref.Losses, res.Weights, ref.Weights)
	if checks, _ := res.TotalComm().TotalIntegrityChecks(); checks == 0 {
		t.Fatal("integrity run recorded no checks; defense was a no-op")
	}
}

// TestIntegrityChecksEveryKeptUse: under Options.Integrity a weight chunk is
// verified at every consumption point the plan names — once per F or B
// pass, whether its copy came off a belt, was kept by the pass before or is
// the rank's own (order.Holds) — and, on the grouped belt, once per shard
// the exchange delivers. A gradient accumulator is verified at every hop it
// arrives by and at its retire, once per message of its chain
// (gradMessages): none for a deferred round's partial, which never leaves
// its rank, so at p=4 two iterations take 36 gradient checks at n=8 and 48
// at n=12.
func TestIntegrityChecksEveryKeptUse(t *testing.T) {
	const iters = 2
	for _, s := range []Strategy{StrategyWeiPipeNaive, StrategyWeiPipeInterleave, StrategyWZB1, StrategyWZB2, StrategyWZB2G} {
		for _, pn := range [][2]int{{2, 4}, {4, 4}, {4, 8}, {4, 12}} {
			p, n := pn[0], pn[1]
			opts := integrityOpts()
			opts.GroupSize = 2
			res := runCodec(t, s, p, eqCfg(), opts, iters, eqBatches(iters, n), nil)
			m := 1
			if s == StrategyWZB2G {
				m = 2
			}
			weights := 0
			for r := 0; r < p; r++ {
				plan, err := order.BeltPlan(string(s), r, p, n, m)
				if err != nil {
					t.Fatal(err)
				}
				kept, own := 0, 0
				for _, u := range plan {
					if u.Phase != 'W' {
						weights++
						if !u.Gather {
							kept++
						} else if order.Holds(r, u.Chunk, p, m) {
							own++
						}
					}
				}
				if p == 4 && n >= 8 && kept == 0 {
					t.Fatalf("%s p=%d n=%d rank %d: the plan keeps no copy; the test proved nothing", s, p, n, r)
				}
				if own == 0 {
					t.Fatalf("%s p=%d n=%d rank %d: the rank serves no use itself; the test proved nothing", s, p, n, r)
				}
			}
			if s == StrategyWZB2G {
				// Every group caches every chunk, by message unless the
				// chunk's owner is its own group's holder.
				for c := 0; c < p; c++ {
					weights += p / m
					if owner := (c - 1 + p) % p; owner%m == c%m {
						weights--
					}
				}
			}
			var grads int64
			for c := 0; c < p; c++ {
				grads += gradMessages(t, s, c, p, n)
			}
			total := res.TotalComm()
			if got, want := total.IntegrityChecks(comm.KindWeight), int64(iters*weights); got != want {
				t.Errorf("%s p=%d n=%d: %d weight checks, want %d", s, p, n, got, want)
			}
			if got, want := total.IntegrityChecks(comm.KindGrad), iters*grads; got != want {
				t.Errorf("%s p=%d n=%d: %d gradient checks, want %d", s, p, n, got, want)
			}
			if _, fails := total.TotalIntegrityChecks(); fails != 0 {
				t.Errorf("%s p=%d n=%d: %d checks failed on a clean run", s, p, n, fails)
			}
		}
	}
}
