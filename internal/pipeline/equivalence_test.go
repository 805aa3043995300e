package pipeline

import (
	"fmt"
	"math"
	"testing"

	"weipipe/internal/checkpoint"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
)

// The central claim of the functional runtimes: every distributed strategy,
// at any worker count, lands on the same post-step weights and losses as
// the serial reference. AdamW's eps is raised to 1e-5 in these tests so
// that benign float-reassociation differences in gradient accumulation are
// not amplified by near-zero second moments.

func eqCfg() model.Config {
	return model.Config{Vocab: 13, Hidden: 8, Layers: 4, Heads: 2, MaxSeq: 6, Seed: 42}
}

func eqOpts() Options {
	adam := optim.DefaultAdamW(0.01)
	adam.Eps = 1e-5
	return Options{Adam: adam}
}

// eqSpec is the equivalence fixture as a run: eqCfg, eqOpts and, from
// RunSpec.Batches, eqBatches' data.
func eqSpec(s Strategy, p, iters, n int) RunSpec {
	return RunSpec{Strategy: s, Model: eqCfg(), Options: eqOpts(), World: p,
		Iters: iters, MicroBatches: n, MicroBatchSize: 2, BatchSeed: 100}
}

func eqBatches(iters, n int) func(int) []data.Batch {
	all := make([][]data.Batch, iters)
	for i := range all {
		all[i] = data.Microbatches(uint64(100+i), n, 2, 13, 6)
	}
	return func(i int) []data.Batch { return all[i] }
}

// serialReference trains the reference and returns per-iteration losses and
// final weights.
func serialReference(t *testing.T, iters, n int) ([]float64, []float32) {
	t.Helper()
	res, err := RunCluster(StrategySerial, 1, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	return res.Losses, res.Weights
}

// maxAbsDiff returns the largest elementwise difference, +Inf if any
// difference is NaN — a poisoned read must fail a tolerance check, not slip
// under it because NaN compares false.
func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}

func checkEquivalence(t *testing.T, s Strategy, p int, opts Options, iters, n int, wantLoss []float64, wantW []float32) {
	t.Helper()
	res, err := RunCluster(s, p, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatalf("%s p=%d: %v", s, p, err)
	}
	for i := range wantLoss {
		if !(math.Abs(res.Losses[i]-wantLoss[i]) <= 1e-4) { // NaN fails too
			t.Errorf("%s p=%d iter %d: loss %.6f, serial %.6f", s, p, i, res.Losses[i], wantLoss[i])
		}
	}
	if len(res.Weights) != len(wantW) {
		t.Fatalf("%s p=%d: weight count %d != %d", s, p, len(res.Weights), len(wantW))
	}
	if d := maxAbsDiff(res.Weights, wantW); d > 5e-4 {
		t.Errorf("%s p=%d: max weight diff vs serial = %g", s, p, d)
	}
}

func TestAllStrategiesMatchSerial(t *testing.T) {
	const iters, n = 2, 8
	wantLoss, wantW := serialReference(t, iters, n)
	type run struct {
		s            Strategy
		p, groupSize int
	}
	var runs []run
	for _, s := range Strategies() {
		runs = append(runs, run{s, 2, 0}, run{s, 4, 0})
	}
	// The hybrid: two weipipe-interleave rings of 2, one replica each.
	runs = append(runs, run{StrategyWeiPipeDP, 4, 2})
	for _, r := range runs {
		name := fmt.Sprintf("%s_p%d", r.s, r.p)
		if r.groupSize > 0 {
			name += fmt.Sprintf("_gs%d", r.groupSize)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := eqOpts()
			opts.GroupSize = r.groupSize
			checkEquivalence(t, r.s, r.p, opts, iters, n, wantLoss, wantW)
		})
	}
}

func TestStrategiesMatchSerialOddWorkerCount(t *testing.T) {
	// 3 workers with 6 microbatches exercises the non-power-of-two paths
	// (uneven chunk sizes from the param-balanced partition).
	const iters, n = 1, 6
	wantLoss, wantW := serialReference(t, iters, n)
	for _, s := range []Strategy{Strategy1F1B, StrategyFSDP, StrategyWeiPipeInterleave, StrategyWZB2} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			checkEquivalence(t, s, 3, eqOpts(), iters, n, wantLoss, wantW)
		})
	}
}

func TestRecomputeMatchesSerial(t *testing.T) {
	// Recomputation must not change results for the strategies that use it.
	const iters, n = 1, 4
	wantLoss, wantW := serialReference(t, iters, n)
	opts := eqOpts()
	opts.Recompute = true
	for _, s := range []Strategy{Strategy1F1B, StrategyGPipe, StrategyFSDP, StrategyWeiPipeInterleave, StrategyWeiPipeNaive} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			res, err := RunCluster(s, 2, eqCfg(), opts, iters, eqBatches(iters, n))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Losses[0]-wantLoss[0]) > 1e-4 {
				t.Errorf("loss %.6f vs serial %.6f", res.Losses[0], wantLoss[0])
			}
			if d := maxAbsDiff(res.Weights, wantW); d > 5e-4 {
				t.Errorf("max weight diff vs serial = %g", d)
			}
		})
	}
}

// TestRecomputeHoldsOnlyBoundaries pins what activation checkpointing is
// for. Between a microbatch's forward and its B pass the arena holds only the
// boundary activations — every block's input and the head's — plus the
// embedding's and the head's stashes, and over the whole F/B/W round the
// store grows to less than it does without recomputation.
func TestRecomputeHoldsOnlyBoundaries(t *testing.T) {
	cfg := eqCfg()
	b := eqBatches(1, 1)(0)[0]
	m := b.G() * b.S() // token rows
	act := 4 * m * cfg.Hidden
	round := func(recompute bool) (heldAfterF, storeBytes int) {
		mdl := model.Build(cfg)
		n := len(mdl.Modules)
		arena := tensor.NewArena()
		caches := newCaches(0, n, b.G(), b.S(), arena)
		forwardRange(mdl, 0, n, nil, b, caches, recompute)
		heldAfterF = arena.LiveBytes()
		backwardRangeB(mdl, 0, n, nil, caches, recompute)
		_, grads := bindGrads(mdl, 0, n)
		backwardRangeW(mdl, 0, n, caches, grads)
		return heldAfterF, arena.Bytes()
	}
	held, withBytes := round(true)
	// The embedding's output and every block's: the inputs of blocks 2…L
	// and the head. The embedding stashes its token ids; the head its norm's
	// inv, the normed input, the probabilities and the targets.
	want := (cfg.Layers+1)*act + 4*m + (4*m + act + 4*m*cfg.Vocab + 4*m)
	if held != want {
		t.Errorf("with recompute a microbatch holds %d bytes between F and B, want %d", held, want)
	}
	heldFull, withoutBytes := round(false)
	if held >= heldFull {
		t.Errorf("recompute holds %d bytes between F and B, no less than the %d without it", held, heldFull)
	}
	if withBytes >= withoutBytes {
		t.Errorf("the arena store grew to %d bytes with recompute, no less than the %d without it", withBytes, withoutBytes)
	}
}

// TestArenaBytesFollowRecompute pins the byte side of ArenaMeter: a run
// reports the heap its busiest rank's arena store holds, at least a float
// per buffer counted in ArenaHighWater, and under recomputation 1F1B's
// busiest rank, with microbatches in flight between F and B, holds less of
// it.
func TestArenaBytesFollowRecompute(t *testing.T) {
	bytes := func(recompute bool) int {
		opts := eqOpts()
		opts.Recompute = recompute
		res, err := RunCluster(Strategy1F1B, 2, eqCfg(), opts, 1, eqBatches(1, 4))
		if err != nil {
			t.Fatal(err)
		}
		if res.ArenaBytes < 4*res.ArenaHighWater || res.ArenaHighWater == 0 {
			t.Fatalf("recompute=%v: %d arena bytes for %d buffers", recompute, res.ArenaBytes, res.ArenaHighWater)
		}
		return res.ArenaBytes
	}
	if with, without := bytes(true), bytes(false); with >= without {
		t.Errorf("1F1B's arena holds %d bytes with recompute, no less than the %d without it", with, without)
	}
}

func TestWeiPipeManyRounds(t *testing.T) {
	// R = N/P > 2 rounds: belts must keep circulating across rounds.
	const iters, n = 1, 12
	wantLoss, wantW := serialReference(t, iters, n)
	checkEquivalence(t, StrategyWeiPipeInterleave, 2, eqOpts(), iters, n, wantLoss, wantW)
	checkEquivalence(t, StrategyWeiPipeNaive, 4, eqOpts(), iters, n, wantLoss, wantW)
}

func TestLossDecreasesOverIterations(t *testing.T) {
	// Sanity: training actually learns on the synthetic Markov stream.
	const iters, n = 6, 4
	batches := data.Microbatches(7, n, 2, 13, 6)
	fn := func(int) []data.Batch { return batches } // overfit one batch set
	res, err := RunCluster(StrategyWeiPipeInterleave, 2, eqCfg(), eqOpts(), iters, fn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[iters-1] >= res.Losses[0] {
		t.Fatalf("loss did not decrease: %v", res.Losses)
	}
}

func TestIndivisibleMicrobatchesRejected(t *testing.T) {
	fn := eqBatches(1, 5) // 5 microbatches, 2 ranks
	for _, s := range []Strategy{StrategyDP, StrategyFSDP, StrategyWeiPipeInterleave} {
		if _, err := RunCluster(s, 2, eqCfg(), eqOpts(), 1, fn); err == nil {
			t.Errorf("%s accepted indivisible microbatch count", s)
		}
	}
}

func TestClipNormMatchesSerial(t *testing.T) {
	// A tight clip forces the scale path; every strategy must still match
	// the serial reference (the clip is on the *global* norm, so the
	// distributed partial-norm all-reduce has to be correct).
	const iters, n = 2, 4
	opts := eqOpts()
	opts.ClipNorm = 0.05
	ref, err := RunCluster(StrategySerial, 1, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Strategy1F1B, StrategyZB2, StrategyFSDP, StrategyDP, StrategyWeiPipeInterleave, StrategyWZB1} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			res, err := RunCluster(s, 2, eqCfg(), opts, iters, eqBatches(iters, n))
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(res.Weights, ref.Weights); d > 5e-4 {
				t.Errorf("clipped weights diverge by %g", d)
			}
		})
	}
	// and the clip actually engaged: weights differ from the unclipped run
	unclipped, err := RunCluster(StrategySerial, 1, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(ref.Weights, unclipped.Weights) == 0 {
		t.Fatal("ClipNorm=0.05 did not change the trajectory (clip never engaged?)")
	}
}

// TestGuardNonFiniteSkipsOnEveryRunner: the guard is the one skip path for a
// poisoned gradient, so every runner must honour it. Each run starts from
// weights holding one NaN in the output head — every logit column it feeds,
// and so every gradient, turns non-finite — and with Guard must skip every
// step and finish on the seed's exact bits.
// The same run without the guard must change the weights.
func TestGuardNonFiniteSkipsOnEveryRunner(t *testing.T) {
	const iters, n = 2, 4
	seed := func() *checkpoint.Snapshot {
		snap := checkpoint.FromModel(model.Build(eqCfg()))
		snap.Weights[len(snap.Weights)-1] = float32(math.NaN())
		return snap
	}
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
			train := func(guard bool) *ClusterResult {
				spec := eqSpec(r.s, r.p, iters, n)
				spec.Options.GroupSize = r.groupSize
				spec.Options.Guard = guard
				res, err := RunResilient(spec, RunHooks{Snapshot: seed()})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := seed().Weights
			sameBits := func(w []float32) bool {
				for i := range want {
					if math.Float32bits(w[i]) != math.Float32bits(want[i]) {
						return false
					}
				}
				return len(w) == len(want)
			}
			guarded := train(true)
			if guarded.SkippedSteps != iters {
				t.Errorf("SkippedSteps = %d, want every one of %d steps skipped", guarded.SkippedSteps, iters)
			}
			if !sameBits(guarded.Weights) {
				t.Error("guarded run changed the weights")
			}
			if control := train(false); sameBits(control.Weights) {
				t.Error("unguarded run left the weights unchanged; the poison never reached a gradient")
			}
		})
	}
}

func TestSerialLossEvalMatchesForward(t *testing.T) {
	s := NewSerial(eqCfg(), eqOpts())
	batches := eqBatches(1, 4)(0)
	evalBefore := s.Loss(batches)
	trainLoss, err := s.TrainIteration(batches)
	if err != nil {
		t.Fatal(err)
	}
	// the training loss is measured before the step → equals the eval loss
	if math.Abs(evalBefore-trainLoss) > 1e-9 {
		t.Fatalf("eval %v != train %v", evalBefore, trainLoss)
	}
	// and after the step the eval loss moved
	if s.Loss(batches) == evalBefore {
		t.Fatal("step did not change the eval loss")
	}
}
