package nn

import (
	"math"

	"weipipe/internal/tensor"
)

// OutputHead is the model's final RMSNorm, the [H, V] language-model
// projection, and a fused mean cross-entropy loss. It sits at the tail of
// the module list; pipeline runtimes call ForwardLoss with targets and then
// start the backward pass from BackwardFromLoss.
type OutputHead struct {
	name   string
	Norm   *RMSNorm
	W      *tensor.Tensor // [H, V]
	params *ParamSet

	// One-entry memo of the final norm's view of the last gradient set seen
	// by BackwardParams, as Block keeps its sub-layers' (Block.views).
	lastGrads, normGrads *ParamSet
}

// NewOutputHead builds the final norm + LM head for hidden size h, vocab v (a
// shell for a nil rng; see newParam).
func NewOutputHead(name string, h, v int, rng *tensor.RNG) *OutputHead {
	o := &OutputHead{
		name: name,
		Norm: newRMSNorm(name+".norm", h, rng == nil),
		W:    newParam(rng, h, v),
	}
	tensor.FillXavier(o.W, rng)
	p := NewParamSet()
	addPrefixed(p, "norm.", o.Norm.Params())
	p.Add("w", o.W)
	o.params = p
	return o
}

// Name implements Module.
func (o *OutputHead) Name() string { return o.name }

// Params implements Module.
func (o *OutputHead) Params() *ParamSet { return o.params }

// ForwardLoss computes the mean cross-entropy of the next-token predictions
// against targets ([G][S] token ids). It returns the scalar loss; the
// softmax probabilities and targets are cached for backward.
func (o *OutputHead) ForwardLoss(x *tensor.Tensor, targets [][]int, cache *Cache) float64 {
	normed := o.Norm.Forward(x, cache.Sub("norm"))
	n := x.Rows()
	v := o.W.Cols()
	logits := alloc(cache, n, v)
	tensor.MatMul(logits, normed, o.W)
	probs := alloc(cache, n, v)
	tensor.SoftmaxRows(probs, logits)
	free(cache, logits)

	g := len(targets)
	s := len(targets[0])
	if g*s != n {
		panic("nn: targets shape mismatch")
	}
	tgt := alloc(cache, n)
	flat := tgt.Data
	var loss float64
	for gi := 0; gi < g; gi++ {
		for si := 0; si < s; si++ {
			t := targets[gi][si]
			if t < 0 || t >= v {
				panic("nn: target id out of vocab range")
			}
			p := float64(probs.Data[(gi*s+si)*v+t])
			if p < 1e-30 {
				p = 1e-30
			}
			loss -= math.Log(p)
			flat[gi*s+si] = float32(t)
		}
	}
	cache.X = x
	cache.Put("normed", normed)
	cache.Put("probs", probs)
	cache.Put("targets", tgt)
	return loss / float64(n)
}

// Forward implements Module; the head requires targets, so plain Forward is
// only valid during recomputation after ForwardLoss stashed them.
func (o *OutputHead) Forward(x *tensor.Tensor, cache *Cache) *tensor.Tensor {
	tgt := cache.Get("targets")
	g, s := cache.G, cache.S
	targets := make([][]int, g)
	for gi := 0; gi < g; gi++ {
		targets[gi] = make([]int, s)
		for si := 0; si < s; si++ {
			targets[gi][si] = int(tgt.Data[gi*s+si])
		}
	}
	o.ForwardLoss(x, targets, cache)
	return nil
}

// BackwardFromLoss starts backpropagation from the scalar loss:
// dlogits = (softmax − onehot(target)) / N. It returns dL/dx of the head's
// input and stashes what the W pass needs. Equivalent to
// BackwardInput(nil, cache).
func (o *OutputHead) BackwardFromLoss(cache *Cache) *tensor.Tensor {
	probs := cache.Get("probs")
	tgt := cache.Get("targets")
	n := probs.Rows()
	v := probs.Cols()
	dlogits := alloc(cache, n, v)
	dlogits.CopyFrom(probs)
	for i := 0; i < n; i++ {
		dlogits.Data[i*v+int(tgt.Data[i])] -= 1
	}
	tensor.Scale(dlogits, dlogits, float32(1.0/float64(n)))
	// W reads dlogits and normed; probs and targets had their last reader.
	cache.release("probs")
	cache.release("targets")

	dnormed := alloc(cache, n, o.W.Rows())
	tensor.MatMulTB(dnormed, dlogits, o.W)
	dx := o.Norm.BackwardInput(dnormed, cache.Sub("norm"))
	// The head's input had its last reader in the norm's B pass.
	cache.Sub("norm").giveBackX()
	cache.X = nil

	cache.Put("dlogits", dlogits)
	return dx
}

// BackwardInput implements Module; dy is ignored because the head owns the
// loss (the gradient source).
func (o *OutputHead) BackwardInput(dy *tensor.Tensor, cache *Cache) *tensor.Tensor {
	return o.BackwardFromLoss(cache)
}

// BackwardParams implements Module (W pass).
func (o *OutputHead) BackwardParams(cache *Cache, grads *ParamSet) {
	normed := cache.Get("normed")
	dlogits := cache.Get("dlogits")
	store := grads.storing()
	matmulTA(store)(grads.Get("w"), normed, dlogits)
	if o.lastGrads != grads {
		o.lastGrads, o.normGrads = grads, subGrads(grads, "norm.")
	}
	o.normGrads.fresh = store
	o.Norm.BackwardParams(cache.Sub("norm"), o.normGrads)
}
