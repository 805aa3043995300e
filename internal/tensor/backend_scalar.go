package tensor

// scalarBackend is the pure-Go reference backend: the register-tiled
// kernels from the original hot-path work, unchanged. It is the
// bit-exactness oracle every other backend is tested against, and the
// default on CPUs and builds without a SIMD backend.
type scalarBackend struct{}

func (scalarBackend) Name() string { return "scalar" }
func (scalarBackend) Exact() bool  { return true }

func (scalarBackend) MatMulNN(dst, a, b *Tensor, acc bool) { matmulNN(dst, a, b, acc, 0) }
func (scalarBackend) MatMulNT(dst, a, b *Tensor, acc bool) { matmulNT(dst, a, b, acc, 0) }
func (scalarBackend) MatMulTN(dst, a, b *Tensor, acc bool) { matmulTN(dst, a, b, acc, 0) }

func (scalarBackend) Add(dst, a, b *Tensor)                  { addScalar(dst.Data, a.Data, b.Data) }
func (scalarBackend) Mul(dst, a, b *Tensor)                  { mulScalar(dst.Data, a.Data, b.Data) }
func (scalarBackend) Axpy(dst *Tensor, s float32, a *Tensor) { axpyScalar(dst, s, a) }
func (scalarBackend) Scale(dst, a *Tensor, s float32)        { scaleScalar(dst, a, s) }
func (scalarBackend) AddInto(dst, a []float32)               { addIntoScalar(dst, a) }
func (scalarBackend) Dot(a, b *Tensor) float64               { return dotScalar(a, b) }
func (scalarBackend) DotF32(a, b *Tensor) float32            { return dotF32Scalar(a.Data, b.Data) }

func (scalarBackend) SiLU(dst, a *Tensor)             { siluScalar(dst, a) }
func (scalarBackend) SiLUBackward(dst, x, dy *Tensor) { siluBackwardScalar(dst, x, dy) }
func (scalarBackend) SoftmaxRows(dst, a *Tensor)      { softmaxRowsScalar(dst, a) }
func (scalarBackend) SoftmaxRowsBackward(dst, y, dy *Tensor) {
	softmaxRowsBackwardScalar(dst, y, dy)
}

func (scalarBackend) RMSNormRows(y, inv, x, gain *Tensor, eps float64) {
	rmsNormRowsScalar(y, inv, x, gain, eps)
}

func (scalarBackend) CausalAttention(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int) {
	causalAttention(out, lse, q, k, v, heads, sq, sk, qOffset, 0)
}

func (scalarBackend) CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int) {
	causalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, heads, sq, sk, qOffset, 0)
}
