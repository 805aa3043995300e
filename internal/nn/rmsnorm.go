package nn

import (
	"weipipe/internal/tensor"
)

// rmsEps is the variance floor used by RMSNorm, matching Llama's 1e-5.
const rmsEps = 1e-5

// RMSNorm is root-mean-square layer normalisation with a learned gain:
// y_j = g_j * x_j / sqrt(mean_j(x_j²) + eps), applied row-wise over the
// hidden dimension.
type RMSNorm struct {
	name string
	// Gain is the learned per-channel scale g, shape [H].
	Gain   *tensor.Tensor
	params *ParamSet
}

// NewRMSNorm returns an RMSNorm over hidden size h with unit gain.
func NewRMSNorm(name string, h int) *RMSNorm { return newRMSNorm(name, h, false) }

// newRMSNorm is NewRMSNorm, or with shell its storage-less shell.
func newRMSNorm(name string, h int, shell bool) *RMSNorm {
	g := tensor.Shell(h)
	if !shell {
		g.Data = make([]float32, h)
		g.Fill(1)
	}
	p := NewParamSet()
	p.Add("g", g)
	return &RMSNorm{name: name, Gain: g, params: p}
}

// Name implements Module.
func (m *RMSNorm) Name() string { return m.name }

// Params implements Module.
func (m *RMSNorm) Params() *ParamSet { return m.params }

// Forward implements Module. x is [rows, H]. Every pass runs through the
// tensor.Backend seam; the forward (tensor.RMSNormRows) also stores 1/rms
// per row for the B pass.
func (m *RMSNorm) Forward(x *tensor.Tensor, cache *Cache) *tensor.Tensor {
	h := m.Gain.Size()
	rows := x.Size() / h
	y := alloc(cache, rows, h)
	inv := alloc(cache, rows) // 1/rms per row
	tensor.RMSNormRows(y, inv, x, m.Gain, rmsEps)
	cache.X = x
	cache.Put("inv", inv)
	return y
}

// BackwardInput implements Module (B pass).
//
// With r = 1/rms(x):  dx_j = r·g_j·dy_j − x_j · r³/H · Σ_k dy_k·g_k·x_k.
// It also forms the gain gradient's terms q_j = (dy_j·x_j)·r, the one thing
// W reads, and gives inv and (when the arena owns it) dy back. x stays the
// caller's to give back.
func (m *RMSNorm) BackwardInput(dy *tensor.Tensor, cache *Cache) *tensor.Tensor {
	x, inv := cache.X, cache.Get("inv")
	h := m.Gain.Size()
	dx := alloc(cache, x.Size()/h, h)
	tensor.RMSNormBackward(dx, x, dy, m.Gain, inv)
	q := alloc(cache, x.Size()/h, h)
	tensor.RMSNormGainTerms(q, x, dy, inv)
	giveBack(cache, dy)
	cache.release("inv")
	cache.Put("q", q)
	return dx
}

// BackwardParams implements Module (W pass): dg_j = Σ_rows q_j, rows
// ascending.
func (m *RMSNorm) BackwardParams(cache *Cache, grads *ParamSet) {
	dg := grads.Get("g")
	if grads.storing() {
		clear(dg.Data) // one gain vector; the kernel accumulates into it
	}
	tensor.AddRowsInto(dg, cache.Get("q"))
}
