package pipeline

import (
	"math"
	"testing"

	"weipipe/internal/tensor"
)

// TestStrategiesPerBackend pins the determinism contract of the kernel
// backends at the training level, for every registered backend — the scalar
// oracle and, where the CPU has one, the SIMD default. Under any single
// backend — including tolerance-mode SIMD backends whose NT matmul,
// attention and SiLU are reassociated relative to scalar — each backend's
// accumulation order is a pure
// function of the shapes, never of the worker-pool chunking, so:
//
//  1. repeating a run must reproduce bitwise identical weights, and
//  2. every strategy must stay within the same tolerance of the serial
//     reference that the scalar equivalence suite enforces (strategies
//     are not bitwise equal to *each other*: they legitimately differ in
//     gradient accumulation order, on every backend).
//
// The whole test runs with arena scratch NaN-poisoned: every strategy's
// scratch tensors are overwritten before they are read, or the NaN reaches
// the weights and check 1 fails (NaN != NaN).
func TestStrategiesPerBackend(t *testing.T) {
	const iters, n = 2, 8
	tensor.SetArenaPoison(true)
	defer tensor.SetArenaPoison(false)
	for _, bk := range tensor.Backends() {
		bk := bk
		t.Run(bk, func(t *testing.T) {
			prev := tensor.BackendName()
			if err := tensor.SetBackend(bk); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := tensor.SetBackend(prev); err != nil {
					t.Fatal(err)
				}
			}()
			ref, err := RunCluster(StrategySerial, 1, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, s := range Strategies() {
				if s == StrategySerial {
					continue
				}
				first, err := RunCluster(s, 2, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
				if err != nil {
					t.Fatalf("%s: %v", s, err)
				}
				again, err := RunCluster(s, 2, eqCfg(), eqOpts(), iters, eqBatches(iters, n))
				if err != nil {
					t.Fatalf("%s rerun: %v", s, err)
				}
				for i := range first.Weights {
					if first.Weights[i] != again.Weights[i] {
						t.Fatalf("backend %s: %s is nondeterministic at weight %d: %b vs %b",
							bk, s, i, first.Weights[i], again.Weights[i])
					}
				}
				if len(first.Weights) != len(ref.Weights) {
					t.Fatalf("%s: weight count %d != %d", s, len(first.Weights), len(ref.Weights))
				}
				var maxd float64
				for i := range ref.Weights {
					if d := math.Abs(float64(first.Weights[i] - ref.Weights[i])); d > maxd {
						maxd = d
					}
				}
				if maxd > 5e-4 {
					t.Errorf("backend %s: %s max weight diff vs serial = %g", bk, s, maxd)
				}
			}
		})
	}
}
