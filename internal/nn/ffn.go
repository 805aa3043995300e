package nn

import "weipipe/internal/tensor"

// FFN is the SwiGLU feed-forward network used by Llama-style models:
//
//	y = (SiLU(x·W1) ⊙ (x·W3)) · W2
//
// with W1, W3 of shape [H, F] and W2 of shape [F, H]. With F ≈ 8H/3 the
// three matrices hold ≈8H² parameters, which together with attention's 4H²
// gives the 12H² per-layer weight volume the paper's analysis uses.
type FFN struct {
	name   string
	W1     *tensor.Tensor // gate proj [H, F]
	W3     *tensor.Tensor // up proj   [H, F]
	W2     *tensor.Tensor // down proj [F, H]
	params *ParamSet
}

// NewFFN builds a SwiGLU FFN with hidden size h and inner size f (a shell for
// a nil rng; see newParam).
func NewFFN(name string, h, f int, rng *tensor.RNG) *FFN {
	m := &FFN{
		name: name,
		W1:   newParam(rng, h, f),
		W3:   newParam(rng, h, f),
		W2:   newParam(rng, f, h),
	}
	tensor.FillXavier(m.W1, rng)
	tensor.FillXavier(m.W3, rng)
	tensor.FillXavier(m.W2, rng)
	p := NewParamSet()
	p.Add("w1", m.W1)
	p.Add("w3", m.W3)
	p.Add("w2", m.W2)
	m.params = p
	return m
}

// Name implements Module.
func (m *FFN) Name() string { return m.name }

// Params implements Module.
func (m *FFN) Params() *ParamSet { return m.params }

// Forward implements Module. x is [rows, H].
func (m *FFN) Forward(x *tensor.Tensor, cache *Cache) *tensor.Tensor {
	rows := x.Rows()
	f := m.W1.Cols()
	h := m.W2.Cols()

	u := alloc(cache, rows, f)
	up := alloc(cache, rows, f)
	tensor.MatMul(u, x, m.W1)
	tensor.MatMul(up, x, m.W3)

	hid := alloc(cache, rows, f)
	tensor.SiLU(hid, u)
	tensor.Mul(hid, hid, up)

	y := alloc(cache, rows, h)
	tensor.MatMul(y, hid, m.W2)

	cache.X = x
	cache.Put("u", u)
	cache.Put("up", up)
	cache.Put("hid", hid)
	return y
}

// BackwardInput implements Module (B pass).
func (m *FFN) BackwardInput(dy *tensor.Tensor, cache *Cache) *tensor.Tensor {
	x := cache.X
	u := cache.Get("u")
	up := cache.Get("up")
	rows := x.Rows()
	f := m.W1.Cols()

	dhid := alloc(cache, rows, f)
	tensor.MatMulTB(dhid, dy, m.W2) // dhid = dy·W2ᵀ

	// hid = silu(u) ⊙ up
	dup := alloc(cache, rows, f)
	tensor.SiLU(dup, u)        // reuse: silu(u)
	tensor.Mul(dup, dup, dhid) // dup = dhid ⊙ silu(u)

	du := alloc(cache, rows, f)
	tensor.Mul(du, dhid, up)       // dhid ⊙ up
	tensor.SiLUBackward(du, u, du) // du = (dhid⊙up) · silu'(u)
	// dhid, u and up have had their last reader; W reads hid, du and dup.
	free(cache, dhid)
	cache.release("u")
	cache.release("up")

	dx := alloc(cache, rows, x.Cols())
	tensor.MatMulTB(dx, du, m.W1)
	tensor.MatMulTBAcc(dx, dup, m.W3)

	cache.Put("du", du)
	cache.Put("dup", dup)
	cache.Put("dy", dy)
	return dx
}

// BackwardParams implements Module (W pass).
func (m *FFN) BackwardParams(cache *Cache, grads *ParamSet) {
	x := cache.X
	hid := cache.Get("hid")
	du := cache.Get("du")
	dup := cache.Get("dup")
	dy := cache.Get("dy")
	mm := matmulTA(grads.storing())
	mm(grads.Get("w1"), x, du)
	mm(grads.Get("w3"), x, dup)
	mm(grads.Get("w2"), hid, dy)
}
