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
	current().Scale(dst, a, s)
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

// SoftmaxRowsBackward computes dx for y = softmax(x) row-wise given y and dy:
// dx = y ⊙ (dy − sum(dy ⊙ y)). dst may alias dy.
func SoftmaxRowsBackward(dst, y, dy *Tensor) {
	checkSameSize3(dst, y, dy, "SoftmaxRowsBackward")
	current().SoftmaxRowsBackward(dst, y, dy)
}

// RMSNormRows computes y_ij = g_j · x_ij / rms_i row-wise over the hidden
// dimension, where rms_i = sqrt(mean_j(x_ij²) + eps), and stores each
// row's 1/rms_i into inv (for the backward pass). x and y are [rows, h]
// under the canonical 2-D view with h = gain.Size(); inv has rows
// elements. y may alias x.
func RMSNormRows(y, inv, x, gain *Tensor, eps float64) {
	h := gain.Size()
	if x.Size()%h != 0 || y.Size() != x.Size() || inv.Size() != x.Size()/h {
		panic(fmt.Sprintf("tensor: RMSNormRows shapes y %v inv %v x %v gain %v",
			y.shape, inv.shape, x.shape, gain.shape))
	}
	current().RMSNormRows(y, inv, x, gain, eps)
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

func scaleScalar(dst, a *Tensor, s float32) {
	for i := range dst.Data {
		dst.Data[i] = s * a.Data[i]
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

func softmaxRowsBackwardScalar(dst, y, dy *Tensor) {
	c := y.Cols()
	r := y.Rows()
	for i := 0; i < r; i++ {
		yr := y.Data[i*c : (i+1)*c]
		dyr := dy.Data[i*c : (i+1)*c]
		out := dst.Data[i*c : (i+1)*c]
		var dot float64
		for j := range yr {
			dot += float64(yr[j]) * float64(dyr[j])
		}
		d := float32(dot)
		for j := range yr {
			out[j] = yr[j] * (dyr[j] - d)
		}
	}
}

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
		r := float32(1.0 / math.Sqrt(ss/float64(h)+eps))
		inv.Data[i] = r
		for j, v := range xr {
			yr[j] = g[j] * v * r
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
