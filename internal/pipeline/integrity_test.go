package pipeline

import (
	"errors"
	"testing"

	"weipipe/internal/comm"
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
			_, err := RunResilient(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n),
				inprocFactory(p), ResilientOptions{})
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
	_, err := RunResilient(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{})
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
	opts.SpikeWindow = 4 // exercise spike snapshot/restore across the restart
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}

	inj := NewBitFlipInjector([]BitFlipEvent{
		{Rank: 1, Iter: 3, Site: FlipWeights, Word: 999, Bit: 27},
	})
	faulted := opts
	faulted.BitFlip = inj
	res, err := RunResilient(StrategyWZB2, p, eqCfg(), faulted, iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{
			CheckpointEvery: 2,
			MaxRestarts:     1,
		})
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
	res, err := RunResilient(StrategyWZB2, p, eqCfg(), faulted, iters, eqBatches(iters, n),
		inprocFactory(p), ResilientOptions{
			Elastic:     ElasticShrink,
			MaxRestarts: 1,
			OnRepair:    func(ev RepairEvent) { repaired = append(repaired, ev) },
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

// TestSpikeCleanEquivalence: an armed spike detector must not perturb a
// healthy run — identical trajectory, zero flags.
func TestSpikeCleanEquivalence(t *testing.T) {
	const p, iters, n = 2, 5, 4
	ref, err := RunCluster(StrategyWZB2, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	opts := eqOpts()
	opts.SpikeWindow = 6
	res, err := RunCluster(StrategyWZB2, p, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "spike detector on vs off", res.Losses, ref.Losses, res.Weights, ref.Weights)
	if res.SpikeSteps != 0 {
		t.Fatalf("healthy run flagged %d spike steps", res.SpikeSteps)
	}
}

// TestSpikeFlagsCorruptedGradients: with belt integrity off, a high-bit
// flip in a retiring gradient inflates that step's norm to a finite but
// absurd value (the sum of squares accumulates in float64, so even ~1e34
// gradient elements square without overflowing); the spike detector is the
// second line of defense and must flag the step and, in skip mode, refuse
// to feed it to the optimizer.
func TestSpikeFlagsCorruptedGradients(t *testing.T) {
	const p, iters, n = 2, 8, 4
	inj := NewBitFlipInjector([]BitFlipEvent{
		{Rank: 0, Iter: 4, Site: FlipBeltGrad, Word: 31, Bit: 30},
	})
	opts := eqOpts()
	opts.SpikeWindow = 4
	opts.SpikeSkip = true
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
