package pipeline

import (
	"hash/crc32"
	"math"
	"testing"

	"weipipe/internal/data"
	"weipipe/internal/model"
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

// TestSIMDBackendsTrainTheSameWeights pins the width contract at the
// training level: three wzb2 and three 1f1b steps end on the same weights —
// bit for bit, stated as their CRC — under every SIMD backend this machine
// registers, so checkpoints, replay oracles and weipipe-launch workers may
// mix avx2 and avx512. The shape gives the GEMM kernel 40-row products: three
// whole 16-lane panels and a 4-row 8-lane tail under avx512.
func TestSIMDBackendsTrainTheSameWeights(t *testing.T) {
	var simd []string
	for _, bk := range tensor.Backends() {
		if bk != "scalar" {
			simd = append(simd, bk)
		}
	}
	if len(simd) < 2 {
		t.Skipf("backends %v: needs avx2 and avx512 (AVX-512F) to compare", tensor.Backends())
	}
	const iters, n, seq = 3, 4, 40
	cfg := model.Config{Vocab: 13, Hidden: 32, Layers: 4, Heads: 2, MaxSeq: seq, Seed: 42}
	batches := func(i int) []data.Batch { return data.Microbatches(uint64(100+i), n, 1, cfg.Vocab, seq) }
	prev := tensor.BackendName()
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, s := range []Strategy{StrategyWZB2, Strategy1F1B} {
		crcs := make([]uint32, len(simd))
		for i, bk := range simd {
			if err := tensor.SetBackend(bk); err != nil {
				t.Fatal(err)
			}
			res, err := RunCluster(s, 2, cfg, eqOpts(), iters, batches)
			if err != nil {
				t.Fatalf("%s under %s: %v", s, bk, err)
			}
			crcs[i] = crc32.ChecksumIEEE(tensor.F32Bytes(res.Weights))
			if crcs[i] != crcs[0] {
				t.Errorf("%s: weights CRC %08x under %s, %08x under %s", s, crcs[i], bk, crcs[0], simd[0])
			}
		}
	}
}
