package pipeline

import (
	"math"
	"testing"

	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/optim"
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

func checkEquivalence(t *testing.T, s Strategy, p, iters, n int, wantLoss []float64, wantW []float32) {
	t.Helper()
	res, err := RunCluster(s, p, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
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
	for _, s := range Strategies() {
		for _, p := range []int{2, 4} {
			s, p := s, p
			t.Run(string(s)+"_p"+string(rune('0'+p)), func(t *testing.T) {
				t.Parallel()
				checkEquivalence(t, s, p, iters, n, wantLoss, wantW)
			})
		}
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
			checkEquivalence(t, s, 3, iters, n, wantLoss, wantW)
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

func TestWeiPipeManyRounds(t *testing.T) {
	// R = N/P > 2 rounds: belts must keep circulating across rounds.
	const iters, n = 1, 12
	wantLoss, wantW := serialReference(t, iters, n)
	checkEquivalence(t, StrategyWeiPipeInterleave, 2, iters, n, wantLoss, wantW)
	checkEquivalence(t, StrategyWeiPipeNaive, 4, iters, n, wantLoss, wantW)
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

func TestMixedPrecisionStaysClose(t *testing.T) {
	// fp16 wire format perturbs but must not diverge: losses within a few
	// percent of the fp32 run after two iterations.
	const iters, n = 2, 4
	wantLoss, _ := serialReference(t, iters, n)
	opts := eqOpts()
	opts.MixedPrecision = true
	res, err := RunCluster(StrategyWeiPipeInterleave, 2, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLoss {
		rel := math.Abs(res.Losses[i]-wantLoss[i]) / wantLoss[i]
		if rel > 0.05 {
			t.Errorf("iter %d: mixed-precision loss %.5f vs fp32 %.5f (rel %f)", i, res.Losses[i], wantLoss[i], rel)
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

func TestDynamicLossScalingSerial(t *testing.T) {
	// With a sane scale the trajectory matches the unscaled run (scaling is
	// linear and exactly undone); with an absurd scale the gradients
	// overflow, the step is skipped and the scale backs off.
	const iters, n = 2, 4
	ref, err := RunCluster(StrategySerial, 1, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	opts := eqOpts()
	opts.Scaler = optim.NewLossScaler(1024, 1000)
	res, err := RunCluster(StrategySerial, 1, eqCfg(), opts, iters, eqBatches(iters, n))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Weights, ref.Weights); d > 1e-4 {
		t.Errorf("scaled run diverges by %g", d)
	}

	// absurd scale → overflow → skipped steps → weights unchanged
	cfg := eqCfg()
	sOpts := eqOpts()
	sOpts.Scaler = optim.NewLossScaler(1e38, 1000)
	tr := NewSerial(cfg, sOpts)
	before := make([]float32, tr.Model().NumParams())
	tr.Model().FlattenChunk(0, len(tr.Model().Modules), before)
	if _, err := tr.TrainIteration(eqBatches(1, n)(0)); err != nil {
		t.Fatal(err)
	}
	after := make([]float32, tr.Model().NumParams())
	tr.Model().FlattenChunk(0, len(tr.Model().Modules), after)
	if maxAbsDiff(before, after) != 0 {
		t.Error("overflowed step was not skipped")
	}
	if sOpts.Scaler.Skipped == 0 || sOpts.Scaler.Scale() >= 1e38 {
		t.Errorf("scaler did not back off: skipped=%d scale=%g", sOpts.Scaler.Skipped, sOpts.Scaler.Scale())
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
