package nn

import "weipipe/internal/tensor"

// Attention is causal multi-head self-attention with rotary position
// embeddings and no biases (Llama style). Weights are stored [in, out].
type Attention struct {
	name    string
	Heads   int
	HeadDim int
	Wq      *tensor.Tensor // [H, H]
	Wk      *tensor.Tensor // [H, H]
	Wv      *tensor.Tensor // [H, H]
	Wo      *tensor.Tensor // [H, H]
	rope    *RopeTable
	params  *ParamSet
}

// NewAttention builds an attention layer for hidden size h with the given
// head count; rope supplies the rotary table (nil disables RoPE).
func NewAttention(name string, h, heads int, rope *RopeTable, rng *tensor.RNG) *Attention {
	if h%heads != 0 {
		panic("nn: hidden size must divide head count")
	}
	return NewAttentionSharded(name, h, heads, h/heads, rope, rng)
}

// NewAttentionSharded builds an attention layer that computes only `heads`
// heads of dimension headDim over inputs of width inDim: the projections
// are [inDim, heads·headDim] (and Wo [heads·headDim, inDim]), so the
// output is a partial sum that a tensor-parallel group all-reduces. With
// heads·headDim == inDim this is the ordinary full layer.
func NewAttentionSharded(name string, inDim, heads, headDim int, rope *RopeTable, rng *tensor.RNG) *Attention {
	width := heads * headDim
	a := &Attention{
		name:    name,
		Heads:   heads,
		HeadDim: headDim,
		Wq:      newParam(rng, inDim, width),
		Wk:      newParam(rng, inDim, width),
		Wv:      newParam(rng, inDim, width),
		Wo:      newParam(rng, width, inDim),
		rope:    rope,
	}
	tensor.FillXavier(a.Wq, rng)
	tensor.FillXavier(a.Wk, rng)
	tensor.FillXavier(a.Wv, rng)
	tensor.FillXavier(a.Wo, rng)
	p := NewParamSet()
	p.Add("wq", a.Wq)
	p.Add("wk", a.Wk)
	p.Add("wv", a.Wv)
	p.Add("wo", a.Wo)
	a.params = p
	return a
}

// Name implements Module.
func (a *Attention) Name() string { return a.name }

// Params implements Module.
func (a *Attention) Params() *ParamSet { return a.params }

// Forward implements Module. x is [G*S, H]. The attention core is the fused
// tiled kernel: besides q, k, v and ctx only a per-row log-sum-exp is
// stashed, never an [S,S] matrix.
func (a *Attention) Forward(x *tensor.Tensor, cache *Cache) *tensor.Tensor {
	g, s := cache.G, cache.S
	inDim := a.Wq.Rows()
	width := a.Heads * a.HeadDim
	tokens := g * s

	q := alloc(cache, tokens, width)
	k := alloc(cache, tokens, width)
	v := alloc(cache, tokens, width)
	tensor.MatMul(q, x, a.Wq)
	tensor.MatMul(k, x, a.Wk)
	tensor.MatMul(v, x, a.Wv)
	if a.rope != nil {
		a.rope.ApplyAll(q, s, a.Heads, 1)
		a.rope.ApplyAll(k, s, a.Heads, 1)
	}

	ctx := alloc(cache, tokens, width)
	lse := alloc(cache, g*a.Heads*s)
	tensor.CausalAttention(ctx, lse, q, k, v, a.Heads, s, s, 0)

	out := alloc(cache, tokens, inDim)
	tensor.MatMul(out, ctx, a.Wo)

	cache.X = x
	cache.Put("q", q)
	cache.Put("k", k)
	cache.Put("v", v)
	cache.Put("ctx", ctx)
	cache.Put("lse", lse)
	return out
}

// BackwardInput implements Module (B pass).
func (a *Attention) BackwardInput(dy *tensor.Tensor, cache *Cache) *tensor.Tensor {
	g, s := cache.G, cache.S
	inDim := a.Wq.Rows()
	width := a.Heads * a.HeadDim
	tokens := g * s

	dctx := alloc(cache, tokens, width)
	tensor.MatMulTB(dctx, dy, a.Wo) // dctx = dy·Woᵀ

	dq := alloc(cache, tokens, width)
	dk := alloc(cache, tokens, width)
	dv := alloc(cache, tokens, width)
	tensor.CausalAttentionBackward(dq, dk, dv, cache.Get("q"), cache.Get("k"), cache.Get("v"),
		cache.Get("ctx"), dctx, cache.Get("lse"), a.Heads, s, s, 0)
	// The kernel was the last reader of dctx and of the stashes only B reads.
	free(cache, dctx)
	cache.release("q")
	cache.release("k")
	cache.release("v")
	cache.release("lse")

	// Undo RoPE: grads of pre-rotation q/k are the inverse rotation.
	if a.rope != nil {
		a.rope.ApplyAll(dq, s, a.Heads, -1)
		a.rope.ApplyAll(dk, s, a.Heads, -1)
	}

	dx := alloc(cache, tokens, inDim)
	tensor.MatMulTB(dx, dq, a.Wq)
	tensor.MatMulTBAcc(dx, dk, a.Wk)
	tensor.MatMulTBAcc(dx, dv, a.Wv)

	// Stash the pre-projection gradients for the W pass.
	cache.Put("dq", dq)
	cache.Put("dk", dk)
	cache.Put("dv", dv)
	cache.Put("dy", dy)
	return dx
}

// BackwardParams implements Module (W pass).
func (a *Attention) BackwardParams(cache *Cache, grads *ParamSet) {
	x := cache.X
	ctx := cache.Get("ctx")
	dq := cache.Get("dq")
	dk := cache.Get("dk")
	dv := cache.Get("dv")
	dy := cache.Get("dy")
	mm := matmulTA(grads.storing())
	mm(grads.Get("wq"), x, dq)
	mm(grads.Get("wk"), x, dk)
	mm(grads.Get("wv"), x, dv)
	mm(grads.Get("wo"), ctx, dy)
}
