package nn

import "weipipe/internal/tensor"

// Block is one Llama-style transformer layer:
//
//	y = x + Attention(RMSNorm(x))
//	z = y + FFN(RMSNorm(y))
//
// A Block is the unit of weight circulation in WeiPipe and the unit of stage
// assignment in the activation-passing baselines.
type Block struct {
	name   string
	Norm1  *RMSNorm
	Attn   *Attention
	Norm2  *RMSNorm
	Ffn    *FFN
	params *ParamSet

	// One-entry memo of the per-sub-layer views of the last gradient set seen
	// by BackwardParams. Pipeline runners accumulate every microbatch of an
	// iteration into one ParamSet, so the views are rebuilt once per
	// iteration instead of once per W pass (which would allocate in the
	// steady-state hot path).
	lastGrads *ParamSet
	gradViews [4]*ParamSet
}

// NewBlock builds a transformer layer with hidden size h, the given head
// count, FFN inner size f, and the shared rotary table rope (may be nil); a
// shell for a nil rng (see newParam).
func NewBlock(name string, h, heads, f int, rope *RopeTable, rng *tensor.RNG) *Block {
	b := &Block{
		name:  name,
		Norm1: newRMSNorm(name+".norm1", h, rng == nil),
		Attn:  NewAttention(name+".attn", h, heads, rope, split(rng)),
		Norm2: newRMSNorm(name+".norm2", h, rng == nil),
		Ffn:   NewFFN(name+".ffn", h, f, split(rng)),
	}
	p := NewParamSet()
	addPrefixed(p, "norm1.", b.Norm1.Params())
	addPrefixed(p, "attn.", b.Attn.Params())
	addPrefixed(p, "norm2.", b.Norm2.Params())
	addPrefixed(p, "ffn.", b.Ffn.Params())
	b.params = p
	return b
}

func addPrefixed(dst *ParamSet, prefix string, src *ParamSet) {
	for _, n := range src.Names() {
		dst.Add(prefix+n, src.Get(n))
	}
}

// Name implements Module.
func (b *Block) Name() string { return b.name }

// Params implements Module. The set aliases the sub-layers' tensors, so
// SetFlat on a block updates attention and FFN weights in place.
func (b *Block) Params() *ParamSet { return b.params }

// Forward implements Module.
func (b *Block) Forward(x *tensor.Tensor, cache *Cache) *tensor.Tensor {
	x1 := b.Norm1.Forward(x, cache.Sub("norm1"))
	ao := b.Attn.Forward(x1, cache.Sub("attn"))
	y := alloc(cache, x.Shape()...)
	tensor.Add(y, x, ao)
	free(cache, ao)

	y1 := b.Norm2.Forward(y, cache.Sub("norm2"))
	fo := b.Ffn.Forward(y1, cache.Sub("ffn"))
	z := alloc(cache, x.Shape()...)
	tensor.Add(z, y, fo)
	free(cache, fo)

	cache.X = x
	return z
}

// BackwardInput implements Module (B pass).
func (b *Block) BackwardInput(dz *tensor.Tensor, cache *Cache) *tensor.Tensor {
	// FFN residual branch: z = y + ffn(norm2(y)).
	dy1 := b.Ffn.BackwardInput(dz, cache.Sub("ffn"))
	dyFfn := b.Norm2.BackwardInput(dy1, cache.Sub("norm2"))
	dy := alloc(cache, dz.Shape()...)
	tensor.Add(dy, dz, dyFfn)
	free(cache, dyFfn)

	// Attention residual branch: y = x + attn(norm1(x)).
	dx1 := b.Attn.BackwardInput(dy, cache.Sub("attn"))
	dxAttn := b.Norm1.BackwardInput(dx1, cache.Sub("norm1"))
	dx := alloc(cache, dz.Shape()...)
	tensor.Add(dx, dy, dxAttn)
	free(cache, dxAttn)
	return dx
}

// BackwardParams implements Module (W pass).
func (b *Block) BackwardParams(cache *Cache, grads *ParamSet) {
	v := b.views(grads)
	store := grads.storing()
	for _, sub := range v {
		sub.fresh = store
	}
	b.Norm1.BackwardParams(cache.Sub("norm1"), v[0])
	b.Attn.BackwardParams(cache.Sub("attn"), v[1])
	b.Norm2.BackwardParams(cache.Sub("norm2"), v[2])
	b.Ffn.BackwardParams(cache.Sub("ffn"), v[3])
}

// views returns the memoized sub-layer views of grads, rebuilding them only
// when a different gradient set is presented.
func (b *Block) views(grads *ParamSet) *[4]*ParamSet {
	if b.lastGrads != grads {
		b.gradViews = [4]*ParamSet{
			subGrads(grads, "norm1."),
			subGrads(grads, "attn."),
			subGrads(grads, "norm2."),
			subGrads(grads, "ffn."),
		}
		b.lastGrads = grads
	}
	return &b.gradViews
}

// subGrads returns a view of grads restricted to names with the given
// prefix, renamed without it, aliasing the underlying tensors.
func subGrads(grads *ParamSet, prefix string) *ParamSet {
	out := NewParamSet()
	for _, n := range grads.Names() {
		if len(n) > len(prefix) && n[:len(prefix)] == prefix {
			out.Add(n[len(prefix):], grads.Get(n))
		}
	}
	return out
}
