// Package nn implements the Llama-style transformer layers used throughout
// the WeiPipe reproduction, with hand-written backward passes.
//
// The backward pass of every module is split in two, mirroring the
// decoupling that zero-bubble pipeline schedules (ZB1/ZB2 and the paper's
// WZB1/WZB2) rely on:
//
//   - BackwardInput ("B pass"): given dL/dy, computes dL/dx and stashes the
//     per-matmul local gradients that the weight pass needs.
//   - BackwardParams ("W pass"): consumes the stash and accumulates dL/dW.
//
// Calling BackwardInput followed by BackwardParams is numerically identical
// to a fused backward; schedules are free to run the W pass much later (and
// on the paper's WeiPipe ring, on the same worker that ran the B pass).
package nn

import "weipipe/internal/tensor"

// Module is a transformer sub-network with an explicit split backward.
//
// Forward must be pure given (x, cache): calling it twice with the same
// inputs repopulates the same cache, which is what recomputation (gradient
// checkpointing) relies on.
type Module interface {
	// Name identifies the module within its model (e.g. "block3").
	Name() string
	// Params returns the module's parameter set. The returned set aliases
	// the live weights; mutating its tensors updates the module.
	Params() *ParamSet
	// Forward computes the module output for activations x ([G*S, H] for
	// interior modules), recording intermediates needed by backward in cache.
	Forward(x *tensor.Tensor, cache *Cache) *tensor.Tensor
	// BackwardInput computes dL/dx from dL/dy (B pass) and stashes what the
	// W pass needs into cache. It must be called after Forward on the same
	// cache.
	BackwardInput(dy *tensor.Tensor, cache *Cache) *tensor.Tensor
	// BackwardParams accumulates dL/dW into grads (W pass). grads must have
	// the same layout as Params(). It must be called after BackwardInput on
	// the same cache.
	BackwardParams(cache *Cache, grads *ParamSet)
}

// newParam returns a zero-filled parameter tensor of the given shape, or —
// when rng is nil — a shell with the shape and no storage. Every constructor
// that takes an rng builds a shell module from a nil one: names, shapes and
// wire layout are all there, so its ParamSet sizes, binds and partitions like
// a built one, but it holds weights only while bound (ParamSet.Bind) and
// skips the initialisation a built one pays for.
func newParam(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	if rng == nil {
		return tensor.Shell(shape...)
	}
	return tensor.New(shape...)
}

// split gives a sub-layer its own stream; a shell build stays one.
func split(rng *tensor.RNG) *tensor.RNG {
	if rng == nil {
		return nil
	}
	return rng.Split()
}

// Backward runs the B pass and W pass back to back (the fused form used by
// schedules that do not decouple them, e.g. 1F1B and WeiPipe-Interleave).
func Backward(m Module, dy *tensor.Tensor, cache *Cache, grads *ParamSet) *tensor.Tensor {
	dx := m.BackwardInput(dy, cache)
	m.BackwardParams(cache, grads)
	return dx
}
