package tensor

import (
	"fmt"
	"math"
)

// The exported ops below are thin routers: they validate shapes and hand
// the kernel to the current Backend. Sub and Transpose, which no training
// step calls, are not on the Backend seam and stay direct.

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b *Tensor) {
	checkSameSize3(dst, a, b, "Add")
	current().Add(dst, a, b)
}

// Sub computes dst = a - b elementwise. dst may alias a or b.
func Sub(dst, a, b *Tensor) {
	checkSameSize3(dst, a, b, "Sub")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul computes dst = a * b elementwise (Hadamard). dst may alias a or b.
func Mul(dst, a, b *Tensor) {
	checkSameSize3(dst, a, b, "Mul")
	current().Mul(dst, a, b)
}

// Scale computes dst = s * a. dst may alias a.
func Scale(dst, a *Tensor, s float32) {
	checkSameSize2(dst, a, "Scale")
	current().Scale(dst.Data, a.Data, s)
}

// ScaleF32 computes dst[i] = s·a[i] over two slices of equal length (dst
// may alias a): the backend's exact vector scale for callers that hold flat
// gradient buffers rather than tensors. Bit-identical to the scalar loop on
// every backend.
func ScaleF32(dst, a []float32, s float32) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("tensor: ScaleF32 size mismatch: %d vs %d", len(dst), len(a)))
	}
	current().Scale(dst, a, s)
}

// AdamWStep holds the scalars of one AdamW step: the moment decays B1 and
// B2, the bias corrections C1 = 1−B1ᵗ and C2 = 1−B2ᵗ, the learning rate and
// epsilon, and G, the factor the gradient is scaled by as it is loaded.
type AdamWStep struct {
	B1, B2, C1, C2, LR, Eps float64
	G                       float32
}

// AdamW applies one AdamW update, weight decay aside, to the parameters w
// from the gradient g, with the fp32 moments m and v updated in place; all
// four slices have one length. Each gradient element is first scaled in
// float32, g = float32(g·G) — ScaleF32(g, g, G)'s bits, left unwritten;
// G = 1 reads g as it is — and then, per element, in float64:
//
//	m' = B1·m + (1−B1)·g        v' = B2·v + ((1−B2)·g)·g
//	w -= float32(LR·(m'/C1) / (sqrt(v'/C2) + Eps))
//
// with m' and v' stored rounded to float32 and the subtraction in float32.
// Every backend rounds exactly this sequence — the vector ones run it on
// float64 lanes, its multiplies and adds unfused — so the result is
// bit-identical everywhere. The vector kernels take m'/C1 and v'/C2 off
// the divider: with y = RN(1/C), q = a·y, then twice r = C·q − a and
// q −= r·y as FMAs, which by Markstein's theorem (Handbook of
// Floating-Point Arithmetic §5.3) is RN(a/C), the divide's bits — zero
// signs and NaN payloads too — for every operand AdamW can present
// (RECIPDIV in simd_avx2_amd64.s).
func AdamW(w, g, m, v []float32, s AdamWStep) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AdamW size mismatch: w %d, g %d, m %d, v %d", len(w), len(g), len(m), len(v)))
	}
	current().AdamW(w, g, m, v, s)
}

// Axpy computes dst += s * a.
func Axpy(dst *Tensor, s float32, a *Tensor) {
	checkSameSize2(dst, a, "Axpy")
	current().Axpy(dst, s, a)
}

// AddInto computes dst += a.
func AddInto(dst, a *Tensor) {
	checkSameSize2(dst, a, "AddInto")
	current().AddInto(dst.Data, a.Data)
}

// AddIntoF32 computes dst[i] += a[i] over two slices of equal length: the
// backend's exact vector add for callers that hold wire buffers rather than
// tensors. Bit-identical to the scalar loop on every backend.
func AddIntoF32(dst, a []float32) {
	if len(dst) != len(a) {
		panic(fmt.Sprintf("tensor: AddIntoF32 size mismatch: %d vs %d", len(dst), len(a)))
	}
	current().AddInto(dst, a)
}

// Dot returns the inner product of a and b accumulated in float64,
// ascending. Every backend preserves this contract exactly; use DotF32
// for the float32-native fast path.
func Dot(a, b *Tensor) float64 {
	checkSameSize2(a, b, "Dot")
	return current().Dot(a, b)
}

// DotF32 returns the inner product of a and b accumulated natively in
// float32. Accumulation contract: the scalar reference sums ascending in
// a single chain; tolerance backends split the sum into per-lane chains
// (lane l accumulates elements with index ≡ l mod 8, ascending) combined
// by the balanced tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), followed by
// the ascending remainder. Deviation from the scalar chain is bounded by
// the equivalence suite.
func DotF32(a, b *Tensor) float32 {
	checkSameSize2(a, b, "DotF32")
	return current().DotF32(a, b)
}

// SiLU computes dst = a * sigmoid(a). dst may alias a.
func SiLU(dst, a *Tensor) {
	checkSameSize2(dst, a, "SiLU")
	current().SiLU(dst, a)
}

// SiLUBackward computes dst = dy * d(silu)/dx evaluated at x.
// dst may alias dy but not x.
func SiLUBackward(dst, x, dy *Tensor) {
	checkSameSize3(dst, x, dy, "SiLUBackward")
	current().SiLUBackward(dst, x, dy)
}

// SoftmaxRows computes a numerically stable softmax over each row of the
// canonical 2-D view of a, writing into dst. dst may alias a.
func SoftmaxRows(dst, a *Tensor) {
	checkSameSize2(dst, a, "SoftmaxRows")
	current().SoftmaxRows(dst, a)
}

// RMSNormRows computes y_ij = g_j · x_ij / rms_i row-wise over the hidden
// dimension, where rms_i = sqrt(mean_j(x_ij²) + eps), and stores each
// row's 1/rms_i into inv (for the backward pass). x and y are [rows, h]
// under the canonical 2-D view with h = gain.Size(); inv has rows
// elements. y may alias x.
func RMSNormRows(y, inv, x, gain *Tensor, eps float64) {
	checkRMSNorm("RMSNormRows", y, x, gain, inv)
	current().RMSNormRows(y, inv, x, gain, eps)
}

// RMSNormBackward computes the input gradient of RMSNormRows from dy, the
// forward's x and its inv: with r_i = inv_i,
// dx_ij = r_i·g_j·dy_ij − x_ij · r_i³/h · Σ_j dy_ij·g_j·x_ij.
// dx may alias dy.
func RMSNormBackward(dx, x, dy, gain, inv *Tensor) {
	checkRMSNorm("RMSNormBackward", dx, x, gain, inv)
	checkSameSize2(dy, x, "RMSNormBackward")
	current().RMSNormBackward(dx, x, dy, gain, inv)
}

// RMSNormGainTerms computes the terms of RMSNormRows' gain gradient,
// q_ij = (dy_ij·x_ij)·inv_i: summed over the rows (AddRowsInto) they give
// dg_j. x, dy and q are [rows, h] with rows = inv.Size(); q may alias x or
// dy.
func RMSNormGainTerms(q, x, dy, inv *Tensor) {
	if n := inv.Size(); n == 0 || x.Size()%n != 0 || q.Size() != x.Size() || dy.Size() != x.Size() {
		panic(fmt.Sprintf("tensor: RMSNormGainTerms shapes %v, x %v, dy %v, inv %v",
			q.shape, x.shape, dy.shape, inv.shape))
	}
	current().RMSNormGainTerms(q, x, dy, inv)
}

// AddRowsInto adds every row of a, [rows, h] with h = dst.Size(), into dst
// in ascending row order: each element of dst is one chain of adds,
// dst_j + a_0j + a_1j + ….
func AddRowsInto(dst, a *Tensor) {
	if h := dst.Size(); h == 0 || a.Size()%h != 0 {
		panic(fmt.Sprintf("tensor: AddRowsInto dst %v, a %v", dst.shape, a.shape))
	}
	current().AddRowsInto(dst, a)
}

// checkRMSNorm panics unless y and x hold [rows, h] with h = gain.Size()
// and inv holds rows elements.
func checkRMSNorm(op string, y, x, gain, inv *Tensor) {
	h := gain.Size()
	if x.Size()%h != 0 || y.Size() != x.Size() || inv.Size() != x.Size()/h {
		panic(fmt.Sprintf("tensor: %s shapes %v, inv %v, x %v, gain %v",
			op, y.shape, inv.shape, x.shape, gain.shape))
	}
}

// Rope applies rotary position embeddings in place. q is [rows, heads·d]
// under the canonical 2-D view, d even; row r sits at position
// pos = r mod seqLen, and each head's pair (2i, 2i+1) turns by the angle
// whose cosine and sine are cos[pos·d/2 + i] and sin[pos·d/2 + i]. dir = 1
// rotates forward, dir = −1 applies the inverse rotation — the gradient
// map, rotation being orthogonal.
func Rope(q *Tensor, cos, sin []float32, seqLen, heads int, dir float32) {
	width := q.Cols()
	if heads < 1 || seqLen < 1 || width%(2*heads) != 0 ||
		len(cos) < seqLen*width/heads/2 || len(sin) != len(cos) {
		panic(fmt.Sprintf("tensor: Rope q %v, %d heads, seqLen %d, tables %d and %d",
			q.shape, heads, seqLen, len(cos), len(sin)))
	}
	current().Rope(q, cos, sin, seqLen, heads, dir)
}

// ---- scalar reference kernels ---------------------------------------------

func addScalar(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func mulScalar(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func scaleScalar(dst, a []float32, s float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = s * a[i]
	}
}

// adamWScalar is the reference AdamW loop (see AdamW); the vector kernels
// run its tail.
func adamWScalar(w, g, m, v []float32, s AdamWStep) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	b1, b2 := s.B1, s.B2
	for i := range w {
		gi := float64(float32(g[i] * s.G))
		mi := b1*float64(m[i]) + (1-b1)*gi
		vi := b2*float64(v[i]) + (1-b2)*gi*gi
		m[i] = float32(mi)
		v[i] = float32(vi)
		mhat := mi / s.C1
		vhat := vi / s.C2
		upd := s.LR * mhat / (math.Sqrt(vhat) + s.Eps)
		w[i] -= float32(upd)
	}
}

func axpyScalar(dst *Tensor, s float32, a *Tensor) {
	for i := range dst.Data {
		dst.Data[i] += s * a.Data[i]
	}
}

func addIntoScalar(dst, a []float32) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] += a[i]
	}
}

func dotScalar(a, b *Tensor) float64 {
	var s float64
	for i := range a.Data {
		s += float64(a.Data[i]) * float64(b.Data[i])
	}
	return s
}

func dotF32Scalar(a, b []float32) float32 {
	var s float32
	b = b[:len(a)]
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func siluScalar(dst, a *Tensor) {
	for i, v := range a.Data {
		dst.Data[i] = v * sigmoid(v)
	}
}

func siluBackwardScalar(dst, x, dy *Tensor) {
	for i, v := range x.Data {
		s := sigmoid(v)
		dst.Data[i] = dy.Data[i] * (s + v*s*(1-s))
	}
}

func sigmoid(v float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(v))))
}

func softmaxRowsScalar(dst, a *Tensor) {
	c := a.Cols()
	r := a.Rows()
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		out := dst.Data[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			out[j] = e
			sum += float64(e)
		}
		inv := float32(1.0 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// The RMSNorm and RoPE kernels below are the bit-exactness reference of
// every backend: the SIMD ones keep each per-row float64 chain ascending and
// every element's rounding sequence (separate mul and add, no FMA).

func rmsNormRowsScalar(y, inv, x, gain *Tensor, eps float64) {
	h := gain.Size()
	rows := x.Size() / h
	g := gain.Data
	for i := 0; i < rows; i++ {
		xr := x.Data[i*h : (i+1)*h]
		yr := y.Data[i*h : (i+1)*h]
		var ss float64
		for _, v := range xr {
			ss += float64(v) * float64(v)
		}
		r := rmsInv(ss, h, eps)
		inv.Data[i] = r
		for j, v := range xr {
			yr[j] = g[j] * v * r
		}
	}
}

// rmsInv is 1/rms of a row of h elements whose squares sum to ss.
func rmsInv(ss float64, h int, eps float64) float32 {
	return float32(1.0 / math.Sqrt(ss/float64(h)+eps))
}

// rmsCoef is the B pass's per-row coefficient r³·dot/h of x.
func rmsCoef(r float32, dot float64, h int) float32 {
	return r * r * r * float32(dot) / float32(h)
}

func rmsNormBackwardScalar(dx, x, dy, gain, inv *Tensor) {
	h := gain.Size()
	rows := x.Size() / h
	g := gain.Data
	for i := 0; i < rows; i++ {
		xr := x.Data[i*h : (i+1)*h]
		dyr := dy.Data[i*h : (i+1)*h]
		dxr := dx.Data[i*h : (i+1)*h]
		r := inv.Data[i]
		var dot float64
		for j := range xr {
			dot += float64(dyr[j]) * float64(g[j]) * float64(xr[j])
		}
		c := rmsCoef(r, dot, h)
		for j := range xr {
			dxr[j] = r*g[j]*dyr[j] - xr[j]*c
		}
	}
}

func rmsNormGainTermsScalar(q, x, dy, inv *Tensor) {
	h := x.Size() / inv.Size()
	for i, r := range inv.Data {
		qr, xr, dyr := q.Data[i*h:(i+1)*h], x.Data[i*h:(i+1)*h], dy.Data[i*h:(i+1)*h]
		for j := range qr {
			qr[j] = dyr[j] * xr[j] * r
		}
	}
}

func addRowsIntoScalar(dst, a []float32) {
	for i := 0; i < len(a); i += len(dst) {
		addIntoScalar(dst, a[i:i+len(dst)])
	}
}

// ropeScalar rotates the pairs i ≥ from of every head of q (see Rope); the
// SIMD backends hand it the pairs past their last whole vector.
func ropeScalar(q *Tensor, cos, sin []float32, seqLen, heads int, dir float32, from int) {
	width := q.Cols()
	d := width / heads
	half := d / 2
	for r := 0; r < q.Rows(); r++ {
		pos := r % seqLen
		row := q.Data[r*width : (r+1)*width]
		for h := 0; h < heads; h++ {
			seg := row[h*d : (h+1)*d]
			for i := from; i < half; i++ {
				c := cos[pos*half+i]
				sn := sin[pos*half+i] * dir
				a, b := seg[2*i], seg[2*i+1]
				seg[2*i] = a*c - b*sn
				seg[2*i+1] = a*sn + b*c
			}
		}
	}
}

// transposeBlock is the square tile edge of the blocked Transpose; a 32×32
// float32 tile is 4 KB, so source and destination tiles sit in L1 together.
const transposeBlock = 32

// Transpose writes aᵀ of the canonical 2-D view of a into dst, which must
// have Cols()==a.Rows() and Rows()==a.Cols(). dst must not alias a. The copy
// runs tile by tile so both the row-major reads and the column-major writes
// stay cache-resident, instead of striding the full destination per row.
func Transpose(dst, a *Tensor) {
	r, c := a.Rows(), a.Cols()
	if dst.Rows() != c || dst.Cols() != r {
		panic(fmt.Sprintf("tensor: Transpose dst %v incompatible with src %v", dst.shape, a.shape))
	}
	ad, dd := a.Data, dst.Data
	for i0 := 0; i0 < r; i0 += transposeBlock {
		i1 := i0 + transposeBlock
		if i1 > r {
			i1 = r
		}
		for j0 := 0; j0 < c; j0 += transposeBlock {
			j1 := j0 + transposeBlock
			if j1 > c {
				j1 = c
			}
			for i := i0; i < i1; i++ {
				arow := ad[i*c+j0 : i*c+j1]
				for jj, v := range arow {
					dd[(j0+jj)*r+i] = v
				}
			}
		}
	}
}

func checkSameSize2(a, b *Tensor, op string) {
	if a.Size() != b.Size() {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.shape, b.shape))
	}
}

func checkSameSize3(a, b, c *Tensor, op string) {
	if a.Size() != b.Size() || a.Size() != c.Size() {
		panic(fmt.Sprintf("tensor: %s size mismatch %v, %v, %v", op, a.shape, b.shape, c.shape))
	}
}
