// Package optim implements the optimizers used by the training runtimes.
// Optimizers operate on flat float32 vectors so that a WeiPipe chunk owner
// can step exactly the parameters it owns; state is fp32 throughout,
// matching the paper's mixed-precision recipe (fp32 optimizer state
// distributed among workers, never transmitted).
package optim

import (
	"fmt"
	"math"
)

// Optimizer updates a flat parameter vector from a same-length gradient.
type Optimizer interface {
	// Step applies one update of w given gradient g. len(w) must equal the
	// size the optimizer was built with; g is not modified.
	Step(w, g []float32)
	// StateBytes reports the optimizer-state footprint in bytes (used by
	// the memory model and tests).
	StateBytes() int
}

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

// Step implements Optimizer.
func (o *AdamW) Step(w, g []float32) {
	if len(w) != len(o.m) || len(g) != len(o.m) {
		panic(fmt.Sprintf("optim: AdamW size mismatch: state %d, w %d, g %d", len(o.m), len(w), len(g)))
	}
	o.step++
	b1, b2 := o.cfg.Beta1, o.cfg.Beta2
	c1 := 1 - math.Pow(b1, float64(o.step))
	c2 := 1 - math.Pow(b2, float64(o.step))
	lr := o.cfg.LR
	wd := float32(o.cfg.WeightDecay * lr)
	for i := range w {
		gi := float64(g[i])
		mi := b1*float64(o.m[i]) + (1-b1)*gi
		vi := b2*float64(o.v[i]) + (1-b2)*gi*gi
		o.m[i] = float32(mi)
		o.v[i] = float32(vi)
		mhat := mi / c1
		vhat := vi / c2
		upd := lr * mhat / (math.Sqrt(vhat) + o.cfg.Eps)
		w[i] -= float32(upd)
		if wd != 0 {
			w[i] -= wd * w[i]
		}
	}
}

// StateBytes implements Optimizer: two fp32 moments per parameter.
func (o *AdamW) StateBytes() int { return 8 * len(o.m) }

// ExportState returns the optimizer's step count and copies of its moment
// vectors, for checkpointing.
func (o *AdamW) ExportState() (step int, m, v []float32) {
	m = make([]float32, len(o.m))
	v = make([]float32, len(o.v))
	copy(m, o.m)
	copy(v, o.v)
	return o.step, m, v
}

// CopyStateInto copies the moment vectors into caller-provided buffers
// (which must match the optimizer's size) and returns the step count. It is
// the allocation-free sibling of ExportState, used by the per-iteration
// rollback stash of the elastic recovery layer.
func (o *AdamW) CopyStateInto(m, v []float32) int {
	if len(m) != len(o.m) || len(v) != len(o.v) {
		panic(fmt.Sprintf("optim: CopyStateInto size mismatch: state %d, m %d, v %d",
			len(o.m), len(m), len(v)))
	}
	copy(m, o.m)
	copy(v, o.v)
	return o.step
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

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      []float32
}

// NewSGD builds an SGD optimizer for a vector of the given size.
func NewSGD(size int, lr, momentum float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum}
	if momentum != 0 {
		s.vel = make([]float32, size)
	} else {
		s.vel = make([]float32, 0)
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step(w, g []float32) {
	if s.Momentum == 0 {
		lr := float32(s.LR)
		for i := range w {
			w[i] -= lr * g[i]
		}
		return
	}
	if len(s.vel) != len(w) {
		panic("optim: SGD size mismatch")
	}
	mu := float32(s.Momentum)
	lr := float32(s.LR)
	for i := range w {
		s.vel[i] = mu*s.vel[i] + g[i]
		w[i] -= lr * s.vel[i]
	}
}

// StateBytes implements Optimizer.
func (s *SGD) StateBytes() int { return 4 * len(s.vel) }

// GlobalNorm returns the L2 norm of g.
func GlobalNorm(g []float32) float64 {
	var ss float64
	for _, v := range g {
		ss += float64(v) * float64(v)
	}
	return math.Sqrt(ss)
}

// ClipByGlobalNorm scales g in place so its L2 norm is at most maxNorm and
// returns the norm before clipping.
func ClipByGlobalNorm(g []float32, maxNorm float64) float64 {
	n := GlobalNorm(g)
	if n > maxNorm && n > 0 {
		s := float32(maxNorm / n)
		for i := range g {
			g[i] *= s
		}
	}
	return n
}

// Schedule maps a step index to a learning rate.
type Schedule interface {
	// LR returns the learning rate for 0-indexed optimizer step `step`.
	LR(step int) float64
}

// ConstantLR is a fixed learning rate.
type ConstantLR float64

// LR implements Schedule.
func (c ConstantLR) LR(int) float64 { return float64(c) }

// WarmupCosine is the LLM-standard schedule: linear warm-up from 0 to Base
// over Warmup steps, then cosine decay to Floor at Total steps (and Floor
// afterwards).
type WarmupCosine struct {
	Base   float64
	Floor  float64
	Warmup int
	Total  int
}

// LR implements Schedule.
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
