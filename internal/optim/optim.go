// Package optim implements the optimizers used by the training runtimes.
// Optimizers operate on flat float32 vectors so that a WeiPipe chunk owner
// can step exactly the parameters it owns; state is fp32 throughout,
// matching the paper's mixed-precision recipe (fp32 optimizer state
// distributed among workers, never transmitted).
package optim

import (
	"fmt"
	"math"

	"weipipe/internal/tensor"
)

// AdamWConfig holds AdamW hyperparameters. Zero values select the usual
// defaults via NewAdamW.
type AdamWConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// DefaultAdamW returns the paper-typical hyperparameters.
func DefaultAdamW(lr float64) AdamWConfig {
	return AdamWConfig{LR: lr, Beta1: 0.9, Beta2: 0.95, Eps: 1e-8, WeightDecay: 0.0}
}

// AdamW is the decoupled-weight-decay Adam optimizer with fp32 moments.
type AdamW struct {
	cfg  AdamWConfig
	step int
	m    []float32
	v    []float32
}

// NewAdamW builds an AdamW for a parameter vector of the given size.
func NewAdamW(size int, cfg AdamWConfig) *AdamW {
	if cfg.Beta1 == 0 {
		cfg.Beta1 = 0.9
	}
	if cfg.Beta2 == 0 {
		cfg.Beta2 = 0.95
	}
	if cfg.Eps == 0 {
		cfg.Eps = 1e-8
	}
	return &AdamW{cfg: cfg, m: make([]float32, size), v: make([]float32, size)}
}

// Step applies one update of w given gradient g, which must both have the
// optimizer's size; g is not modified. The update runs in tensor.AdamW: float64
// arithmetic per element, on 4 (avx2) or 8 (avx512) float64 lanes under a
// SIMD backend, bit-identical to the scalar loop everywhere. The vector
// kernels take the two bias corrections as a reciprocal multiply with two
// FMA corrections, exact by Markstein's theorem, so only the square root
// and the final divide use the divider, which still bounds the loop: over
// 820 800 parameters on a 2-core AVX-512 host, scalar 7.5, avx2 2.5 and
// avx512 2.2 ns/param, where three divides and the square root read 3.5
// on both in the same window (BenchmarkAdamWStep). Decoupled weight
// decay, when configured, is a second float32 pass over w; it reads each
// element after that element's update, as the fused loop did, so the bits
// are the same.
func (o *AdamW) Step(w, g []float32) {
	if len(w) != len(o.m) || len(g) != len(o.m) {
		panic(fmt.Sprintf("optim: AdamW size mismatch: state %d, w %d, g %d", len(o.m), len(w), len(g)))
	}
	o.step++
	b1, b2 := o.cfg.Beta1, o.cfg.Beta2
	tensor.AdamW(w, g, o.m, o.v, tensor.AdamWStep{
		B1: b1, B2: b2,
		C1: 1 - math.Pow(b1, float64(o.step)),
		C2: 1 - math.Pow(b2, float64(o.step)),
		LR: o.cfg.LR, Eps: o.cfg.Eps,
	})
	if wd := float32(o.cfg.WeightDecay * o.cfg.LR); wd != 0 {
		for i := range w {
			w[i] -= wd * w[i]
		}
	}
}

// CopyStateInto copies the moment vectors into caller-provided buffers
// (which must match the optimizer's size) and returns the step count: how
// a checkpoint capture takes them, straight into the snapshot.
func (o *AdamW) CopyStateInto(m, v []float32) int {
	if len(m) != len(o.m) || len(v) != len(o.v) {
		panic(fmt.Sprintf("optim: CopyStateInto size mismatch: state %d, m %d, v %d",
			len(o.m), len(m), len(v)))
	}
	copy(m, o.m)
	copy(v, o.v)
	return o.step
}

// CopyFrom sets the step count and moments to src's, which must match the
// optimizer's size: the one-deep rollback stash of the elastic recovery
// layer.
func (o *AdamW) CopyFrom(src *AdamW) {
	if len(src.m) != len(o.m) {
		panic(fmt.Sprintf("optim: CopyFrom size mismatch: state %d, src %d", len(o.m), len(src.m)))
	}
	o.step = src.step
	copy(o.m, src.m)
	copy(o.v, src.v)
}

// VisitState hands the optimizer's live moment vectors to f without
// copying. The integrity layer's resident-state guard checksums them
// through this (and the bit-flip chaos injector corrupts them through it);
// f must not retain the slices.
func (o *AdamW) VisitState(f func(m, v []float32)) { f(o.m, o.v) }

// LoadState restores the optimizer from a checkpointed step count and moment
// vectors (copied in). The vectors must match the optimizer's size.
func (o *AdamW) LoadState(step int, m, v []float32) error {
	if len(m) != len(o.m) || len(v) != len(o.v) {
		return fmt.Errorf("optim: AdamW state size mismatch: have %d, loading m=%d v=%d",
			len(o.m), len(m), len(v))
	}
	o.step = step
	copy(o.m, m)
	copy(o.v, v)
	return nil
}

// WarmupCosine is the LLM-standard schedule: linear warm-up from 0 to Base
// over Warmup steps, then cosine decay to Floor at Total steps (and Floor
// afterwards).
type WarmupCosine struct {
	Base   float64
	Floor  float64
	Warmup int
	Total  int
}

// LR returns the learning rate for 0-indexed optimizer step `step`.
func (w WarmupCosine) LR(step int) float64 {
	if w.Warmup > 0 && step < w.Warmup {
		return w.Base * float64(step+1) / float64(w.Warmup)
	}
	if step >= w.Total {
		return w.Floor
	}
	progress := float64(step-w.Warmup) / float64(w.Total-w.Warmup)
	return w.Floor + 0.5*(w.Base-w.Floor)*(1+math.Cos(math.Pi*progress))
}

// SetLR changes the optimizer's learning rate (for schedules).
func (o *AdamW) SetLR(lr float64) { o.cfg.LR = lr }

// LR returns the optimizer's current learning rate.
func (o *AdamW) LR() float64 { return o.cfg.LR }
