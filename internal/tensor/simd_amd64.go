//go:build !noasm

package tensor

// AVX2 backend: Go-side drivers for the assembly kernels in
// simd_avx2_amd64.s. Registered at init when the CPU supports AVX2+FMA,
// and then the process default (backend.go) unless the CPU also has
// AVX-512, which registers the avx512 backend above it;
// SetBackend("scalar") pins the bit-exactness oracle instead.
//
// Exactness partition (see DESIGN.md §13):
//
//   - avx512 = avx2 bit for bit, on every method: it is the avx2 backend
//     with every gemm row on the 16-lane micro-kernel (gemmAVX512,
//     simd_avx512_amd64.s: whole panels of 12, then the m%12 rows),
//     attention's softmax tiles on 16 lanes, AdamW on 8 float64 lanes
//     instead of 4, and the rest on the 8-lane kernels.
//   - Add, Mul, Axpy, Scale, AddInto, AddRowsInto, RMSNorm's passes and RoPE:
//     vectorized across independent output elements with the scalar
//     per-element rounding sequence (separate mul/add, no FMA) —
//     bit-identical to scalar. RMSNorm's per-row float64 sums stay one
//     ascending chain each, four rows' chains interleaved; Dot (float64) is
//     scalar's loop. AdamW, likewise, runs scalar's float64 sequence on
//     float64 lanes (adamWAVX2), its two bias-correction divides as an
//     exactly corrected reciprocal multiply (RECIPDIV) with the divide's
//     bits.
//   - NN, TN and NT matmuls: the register-tiled GEMM micro-kernel
//     (gemmAVX2), NT through a transposed panel of b. Every dst element is
//     one ascending FMA chain over k in its own lane, from 0 or —
//     accumulating — from dst: fused where scalar rounds the product and the
//     sum separately, hence tolerance mode. The chain is a pure function of
//     the element's a row, b column and k — never of m, the tile, the panel
//     or the worker chunk — so every strategy remains bit-identical to
//     every other under this backend, and a·bᵀ equals a·(bᵀ) bit for bit.
//   - DotF32: the one lane-split reduction left — 8 FMA lane chains along
//     the reduction axis and a fixed balanced combine tree, reassociated
//     relative to scalar, hence tolerance mode; a pure function of the
//     length.
//   - CausalAttention and its backward: the shared tile walk of
//     attention.go with its three tile products on the GEMM kernel — the
//     scores against a key tile transposed (and scaled) into scratch, the
//     out/dq updates as NN calls, dk/dv as TN calls, every element one FMA
//     chain continued from tile to tile — and its softmax as one kernel
//     call per tile (attnSoftmax*, attnSoftmaxGrad*): the vector expNeg,
//     each row's sum in 8 lane chains, the tree and an ascending tail at
//     either width, and the row maximum and the Jacobian row, which are
//     exact. Tolerance mode, bounded against the float64 reference; every
//     element's order is a pure function of the shapes.
//   - SiLU and its backward: sigmoid from the same vector expNeg of −|v|
//     in float32, where scalar rounds a float64 math.Exp — tolerance mode.
//   - SoftmaxRows (the LM head's): the row leaves over whole rows — the
//     vector exp with the same lane-split float32 row sum, where scalar
//     rounds a float64 math.Exp and sums in float64 — tolerance mode; the
//     sum's order is a pure function of the row length.

//go:noescape
func axpyAVX2(dst, a *float32, n8 int, s float32)

//go:noescape
func scaleAVX2(dst, a *float32, n8 int, s float32)

//go:noescape
func addIntoAVX2(dst, a *float32, n8 int)

//go:noescape
func adamWAVX2(w, grad, m, v *float32, n4 int, k *[11]float64)

//go:noescape
func adamWAVX512(w, grad, m, v *float32, n8 int, k *[11]float64)

//go:noescape
func recipDivAVX2(dst, a *float64, n4 int, k *[2]float64)

//go:noescape
func recipDivAVX512(dst, a *float64, n8 int, k *[2]float64)

//go:noescape
func addAVX2(dst, a, b *float32, n8 int)

//go:noescape
func mulAVX2(dst, a, b *float32, n8 int)

//go:noescape
func dotAVX2(a, b *float32, n int) float32

//go:noescape
func gemmAVX2(a *float32, ars, aks uintptr, b *float32, ldb uintptr, c *float32, ldc uintptr, m, n, k int, acc bool)

//go:noescape
func gemmAVX512(a *float32, ars, aks uintptr, b *float32, ldb uintptr, c *float32, ldc uintptr, m, n, k int, acc bool)

//go:noescape
func transposeScaleAVX2(dst *float32, ldd uintptr, src *float32, lds uintptr, rb, cb int, scale float32)

//go:noescape
func expSubAVX2(s *float32, n8 int, shift, prev float32) (sum, alpha float32)

//go:noescape
func rowMaxAVX2(s *float32, n8 int) float32

//go:noescape
func attnRowMaxAVX2(s, m, old *float32, r0, r1, diag, w int)

//go:noescape
func attnSoftmaxAVX2(s, m, l, alpha *float32, r0, r1, diag, w int, out *float32, ldo uintptr, d int)

//go:noescape
func attnSoftmaxAVX512(s, m, l, alpha *float32, r0, r1, diag, w int, out *float32, ldo uintptr, d int)

//go:noescape
func attnSoftmaxGradAVX2(p, ds, lse, delta *float32, r0, r1, diag, w int, scale float32)

//go:noescape
func attnSoftmaxGradAVX512(p, ds, lse, delta *float32, r0, r1, diag, w int, scale float32)

//go:noescape
func siluAVX2(dst, a *float32, n8 int)

//go:noescape
func siluBackwardAVX2(dst, x, dy *float32, n8 int)

//go:noescape
func rmsScaleAVX2(y, x, gain, inv *float32, ld uintptr, rows, n8 int)

//go:noescape
func rmsBackAVX2(dx, x, dy, gain, inv, c *float32, ld uintptr, rows, n8 int)

//go:noescape
func rmsTermsAVX2(q, x, dy, inv *float32, ld uintptr, rows, n8 int)

//go:noescape
func addRowsAVX2(dst, a *float32, ld uintptr, rows, n8 int)

//go:noescape
func ropeAVX2(q *float32, ldq uintptr, cos, sin *float32, ldt uintptr, signs *float32, rows, heads, d8 int, d uintptr)

//go:noescape
func fmaSpinAVX2(iters int)

//go:noescape
func fmaSpinAVX512(iters int)

//go:noescape
func crc32AVX512(crc uint32, p []byte) uint32

// crcWide reports whether UpdateCRC32 runs crc32AVX512: the CPU has
// VPCLMULQDQ beside AVX-512F, and the OS saves ZMM state.
var crcWide = cpuHasAVX2FMA() && cpuHasAVX512F() && cpuHasCLMUL512()

// crcFold holds crc32AVX512's constants, at the byte offsets it reads them
// from. The pair that folds d bytes forward is x^(8d+32) and x^(8d−32)
// modulo the IEEE polynomial P, bit-reflected and shifted left by one, the
// low qword's factor first. All but the 256-byte pair are hash/crc32's own
// (r2r1, r4r3, rupoly, r5).
var crcFold = [...]uint64{
	0x11542778a, 0x1322d1430, // +0: 256 B, x^2080 and x^2016
	0x154442bd4, 0x1c6e41596, // +16: 64 B (r2r1), x^544 and x^480
	0x1751997d0, 0x0ccaa009e, // +32: 16 B (r4r3), x^160 and x^96
	0x1db710641, 0x1f7011641, // +48: P and its Barrett quotient μ (rupoly)
	0x163cd6124, // +64: x^64 (r5)
}

// SIMDCompiled reports whether this build carries the assembly kernels:
// true on amd64 without the noasm tag, whatever the CPU turns out to support.
const SIMDCompiled = true

func registerSIMDBackends() {
	if cpuHasAVX2FMA() {
		registerBackend(avx2Backend{})
		if cpuHasAVX512F() {
			registerBackend(avx512Backend{})
		}
	}
}

// FMASpin is the FMA-peak probe of the kernel bench: it runs rounds of 12
// independent FMA chains on registers at the given vector width (8 or 16
// float32 lanes) and returns the floating-point operations performed — 0
// where the CPU has no backend of that width, and nothing ran.
func FMASpin(width, rounds int) (flop float64) {
	switch {
	case rounds < 1:
		return 0
	case width == 8 && cpuHasAVX2FMA():
		fmaSpinAVX2(rounds)
	case width == 16 && cpuHasAVX2FMA() && cpuHasAVX512F():
		fmaSpinAVX512(rounds)
	default:
		return 0
	}
	return 12 * 2 * float64(width) * float64(rounds)
}

// expTab holds expNeg's constants, each broadcast to a full vector, in the
// order the EXPNEG macro of simd_avx2_amd64.s indexes them. Built from the
// constants expNeg itself uses, so the two cannot drift apart.
var expTab = func() (t [12][8]float32) {
	for i, c := range [...]float32{
		expUnderflow, expLog2e, expLn2Hi, expLn2Lo,
		expP0, expP1, expP2, expP3, expP4, expP5, 1,
		3 << 22, // 1.5·2²³: adding it rounds a small float to an integer
	} {
		for l := range t[i] {
			t[i][l] = c
		}
	}
	return t
}()

// avx2Backend implements Backend with the AVX2/FMA kernels.
type avx2Backend struct{}

func (avx2Backend) Name() string { return "avx2" }

// Exact is false because the matmuls, DotF32 and the attention products
// run on FMA chains (fused, and for DotF32 reassociated, relative to the
// scalar reference) and SiLU and SoftmaxRows take their exponentials from
// the float32 vector exp. The other primitives are bit-identical to scalar;
// the equivalence suite enforces both halves of this contract.
func (avx2Backend) Exact() bool { return false }

func (avx2Backend) MatMulNN(dst, a, b *Tensor, acc bool) { matmulNN(dst, a, b, acc, 8) }
func (avx2Backend) MatMulNT(dst, a, b *Tensor, acc bool) { matmulNT(dst, a, b, acc, 8) }
func (avx2Backend) MatMulTN(dst, a, b *Tensor, acc bool) { matmulTN(dst, a, b, acc, 8) }

func (avx2Backend) Add(dst, a, b *Tensor) {
	d, x, y := dst.Data, a.Data, b.Data
	n8 := len(d) >> 3
	if n8 > 0 {
		addAVX2(&d[0], &x[0], &y[0], n8)
	}
	addScalar(d[n8<<3:], x[n8<<3:], y[n8<<3:])
}

func (avx2Backend) Mul(dst, a, b *Tensor) {
	d, x, y := dst.Data, a.Data, b.Data
	n8 := len(d) >> 3
	if n8 > 0 {
		mulAVX2(&d[0], &x[0], &y[0], n8)
	}
	mulScalar(d[n8<<3:], x[n8<<3:], y[n8<<3:])
}

func (avx2Backend) Axpy(dst *Tensor, s float32, a *Tensor) {
	d, src := dst.Data, a.Data
	n8 := len(d) >> 3
	if n8 > 0 {
		axpyAVX2(&d[0], &src[0], n8, s)
	}
	for i := n8 << 3; i < len(d); i++ {
		d[i] += s * src[i]
	}
}

func (avx2Backend) Scale(dst, a []float32, s float32) { scaleSlice(dst, a, s) }

// scaleSlice computes d[i] = s·src[i] over equal-length slices.
func scaleSlice(d, src []float32, s float32) {
	n8 := len(d) >> 3
	if n8 > 0 {
		scaleAVX2(&d[0], &src[0], n8, s)
	}
	for i := n8 << 3; i < len(d); i++ {
		d[i] = s * src[i]
	}
}

func (avx2Backend) AddInto(d, src []float32) {
	n8 := len(d) >> 3
	if n8 > 0 {
		addIntoAVX2(&d[0], &src[0], n8)
	}
	for i := n8 << 3; i < len(d); i++ {
		d[i] += src[i]
	}
}

// AdamW runs the update four elements to a vector of float64 lanes and the
// last len%4 through the scalar loop.
func (avx2Backend) AdamW(w, g, m, v []float32, s AdamWStep) { adamWSIMD(w, g, m, v, s, 4) }

// adamWSIMD runs AdamW's whole vectors of the given width (4: avx2, 8:
// avx512) through the kernel and the ragged tail through the scalar loop.
// The kernel takes the bias corrections m'/C1 and v'/C2 off the divider:
// each is a multiply by RN(1/C), computed here once per step, and two FMA
// corrections that make it the divide's bits (Markstein's theorem; see
// RECIPDIV in simd_avx2_amd64.s). The square root and the final divide
// stay on the divider, which bounds the loop, so eight lanes buy little
// over four.
func adamWSIMD(w, g, m, v []float32, s AdamWStep, width int) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	consts := [11]float64{s.B1, 1 - s.B1, s.B2, 1 - s.B2, s.C1, s.C2, s.LR, s.Eps, 1 / s.C1, 1 / s.C2, float64(s.G)}
	nv := len(w) / width
	if nv > 0 {
		if width == 8 {
			adamWAVX512(&w[0], &g[0], &m[0], &v[0], nv, &consts)
		} else {
			adamWAVX2(&w[0], &g[0], &m[0], &v[0], nv, &consts)
		}
	}
	t := nv * width
	adamWScalar(w[t:], g[t:], m[t:], v[t:], s)
}

func (avx2Backend) Dot(a, b *Tensor) float64 { return dotScalar(a, b) }

func (avx2Backend) DotF32(a, b *Tensor) float32 {
	if len(a.Data) == 0 {
		return 0
	}
	return dotAVX2(&a.Data[0], &b.Data[0], len(a.Data))
}

// SiLU computes v·σ(v) with σ from e = expNeg(−|v|): 1/(1+e) for v ≥ 0,
// e/(1+e) below. A ragged tail runs through the same kernel on a padded
// copy, so an element's result does not depend on its position.
func (avx2Backend) SiLU(dst, a *Tensor) {
	d, src := dst.Data, a.Data
	n8 := len(src) >> 3
	if n8 > 0 {
		siluAVX2(&d[0], &src[0], n8)
	}
	if tail := len(src) & 7; tail > 0 {
		var buf [8]float32
		copy(buf[:], src[n8<<3:])
		siluAVX2(&buf[0], &buf[0], 1)
		copy(d[n8<<3:], buf[:tail])
	}
}

// SiLUBackward computes dy·(σ + v·σ·(1−σ)), taking 1−σ = σ(−v) from the
// other branch of the same quotient instead of a cancelling subtraction.
func (avx2Backend) SiLUBackward(dst, x, dy *Tensor) {
	d, xs, g := dst.Data, x.Data, dy.Data
	n8 := len(xs) >> 3
	if n8 > 0 {
		siluBackwardAVX2(&d[0], &xs[0], &g[0], n8)
	}
	if tail := len(xs) & 7; tail > 0 {
		var xb, gb [8]float32
		copy(xb[:], xs[n8<<3:])
		copy(gb[:], g[n8<<3:])
		siluBackwardAVX2(&gb[0], &xb[0], &gb[0], 1)
		copy(d[n8<<3:], gb[:tail])
	}
}

// SoftmaxRows runs the row leaves over whole rows: the row maximum, the
// vector exp of each element less it with the lane-split row sum
// (simdExpSubRow: a pure function of the row length, and the order
// attention's softmax tiles keep), then one exact scale by 1/sum.
func (avx2Backend) SoftmaxRows(dst, a *Tensor) {
	c := a.Cols()
	for i := 0; i < a.Rows(); i++ {
		out := dst.Data[i*c : (i+1)*c]
		m := simdRowMax(a.Data[i*c : (i+1)*c])
		copy(out, a.Data[i*c:(i+1)*c])
		sum, _ := simdExpSubRow(out, m, m)
		scaleSlice(out, out, 1/sum)
	}
}

// The RMSNorm passes keep the scalar kernels' bits. Each row's float64
// sum is its own ascending chain, four rows' chains interleaved so that
// their adds overlap (sumSq4, dotG4); the elementwise parts run eight
// columns to a vector with scalar's separate roundings, over up to four
// rows per call, and a ragged h's last h%8 columns run scalar's loop.

func (avx2Backend) RMSNormRows(y, inv, x, gain *Tensor, eps float64) {
	h, g := gain.Size(), gain.Data
	rows, n8 := x.Size()/h, h>>3
	for i := 0; i < rows; i += 4 {
		k := min(4, rows-i)
		xs := x.Data[i*h : (i+k)*h]
		ss := sumSq4(xs, h)
		r := inv.Data[i : i+k]
		for q := range r {
			r[q] = rmsInv(ss[q], h, eps)
		}
		ys := y.Data[i*h : (i+k)*h]
		if n8 > 0 {
			rmsScaleAVX2(&ys[0], &xs[0], &g[0], &r[0], uintptr(h)*4, k, n8)
		}
		for q := range r {
			for j := n8 << 3; j < h; j++ {
				ys[q*h+j] = g[j] * xs[q*h+j] * r[q]
			}
		}
	}
}

func (avx2Backend) RMSNormBackward(dx, x, dy, gain, inv *Tensor) {
	h, g := gain.Size(), gain.Data
	rows, n8 := x.Size()/h, h>>3
	for i := 0; i < rows; i += 4 {
		k := min(4, rows-i)
		xs, dys, dxs := x.Data[i*h:(i+k)*h], dy.Data[i*h:(i+k)*h], dx.Data[i*h:(i+k)*h]
		dot := dotG4(g, dys, xs)
		r := inv.Data[i : i+k]
		var c [4]float32
		for q := range r {
			c[q] = rmsCoef(r[q], dot[q], h)
		}
		if n8 > 0 {
			rmsBackAVX2(&dxs[0], &xs[0], &dys[0], &g[0], &r[0], &c[0], uintptr(h)*4, k, n8)
		}
		for q := range r {
			for j := n8 << 3; j < h; j++ {
				dxs[q*h+j] = r[q]*g[j]*dys[q*h+j] - xs[q*h+j]*c[q]
			}
		}
	}
}

func (avx2Backend) RMSNormGainTerms(q, x, dy, inv *Tensor) {
	rows := len(inv.Data)
	h := x.Size() / rows
	n8 := h >> 3
	if n8 > 0 {
		rmsTermsAVX2(&q.Data[0], &x.Data[0], &dy.Data[0], &inv.Data[0], uintptr(h)*4, rows, n8)
	}
	for i, r := range inv.Data {
		for j := i*h + n8<<3; j < (i+1)*h; j++ {
			q.Data[j] = dy.Data[j] * x.Data[j] * r
		}
	}
}

func (avx2Backend) AddRowsInto(dst, a *Tensor) {
	h := dst.Size()
	rows, n8 := a.Size()/h, h>>3
	if n8 > 0 && rows > 0 {
		addRowsAVX2(&dst.Data[0], &a.Data[0], uintptr(h)*4, rows, n8)
	}
	if tail := n8 << 3; tail < h {
		for i := 0; i < rows; i++ {
			addIntoScalar(dst.Data[tail:], a.Data[i*h+tail:(i+1)*h])
		}
	}
}

// sumSq4 returns Σ_j x_j² of each of the up to four h-long rows of x, each
// one ascending float64 chain: a product of two float32s is exact in
// float64, so the adds' order is all there is to keep.
func sumSq4(x []float32, h int) (ss [4]float64) {
	if len(x) < 4*h {
		for q := range len(x) / h {
			for _, v := range x[q*h : (q+1)*h] {
				ss[q] += float64(v) * float64(v)
			}
		}
		return ss
	}
	x0 := x[:h]
	x1, x2, x3 := x[h:][:h], x[2*h:][:h], x[3*h:][:h]
	var s0, s1, s2, s3 float64
	for j, v := range x0 {
		a, b, c, d := float64(v), float64(x1[j]), float64(x2[j]), float64(x3[j])
		s0 += a * a
		s1 += b * b
		s2 += c * c
		s3 += d * d
	}
	return [4]float64{s0, s1, s2, s3}
}

// dotG4 returns Σ_j (dy_j·g_j)·x_j of each of the up to four len(g)-long
// rows of dy and x, each one ascending float64 chain.
func dotG4(g, dy, x []float32) (dot [4]float64) {
	h := len(g)
	if len(x) < 4*h {
		for q := range len(x) / h {
			d, xr := dy[q*h:(q+1)*h], x[q*h:(q+1)*h]
			for j, v := range xr {
				dot[q] += float64(d[j]) * float64(g[j]) * float64(v)
			}
		}
		return dot
	}
	d0, d1, d2, d3 := dy[:h], dy[h:][:h], dy[2*h:][:h], dy[3*h:][:h]
	x0, x1, x2, x3 := x[:h], x[h:][:h], x[2*h:][:h], x[3*h:][:h]
	var s0, s1, s2, s3 float64
	for j, gv := range g {
		w := float64(gv)
		s0 += float64(d0[j]) * w * float64(x0[j])
		s1 += float64(d1[j]) * w * float64(x1[j])
		s2 += float64(d2[j]) * w * float64(x2[j])
		s3 += float64(d3[j]) * w * float64(x3[j])
	}
	return [4]float64{s0, s1, s2, s3}
}

// ropePairs is the VPERMILPS control that spreads four table entries over
// the eight lanes of their four pairs: (0, 0, 1, 1 | 2, 2, 3, 3).
var ropePairs = [8]int32{0, 0, 1, 1, 2, 2, 3, 3}

// Rope rotates each head's first d&^7 columns eight at a time: with x the
// pairs (a, b), x̃ them swapped and the table entries spread over both
// lanes of their pair, x·(c, c) + x̃·(−s, s) — scalar's products, and
// sums a·c + (−b·s) ≡ a·c − b·s and b·c + a·s ≡ a·s + b·c exactly. The
// pairs past the last whole vector of a head run the scalar loop.
func (avx2Backend) Rope(q *Tensor, cos, sin []float32, seqLen, heads int, dir float32) {
	width := q.Cols()
	d := width / heads
	if d8 := d >> 3; d8 > 0 {
		signs := [8]float32{-dir, dir, -dir, dir, -dir, dir, -dir, dir}
		rows := q.Rows()
		for r0 := 0; r0 < rows; r0 += seqLen {
			n := min(seqLen, rows-r0)
			_ = q.Data[(r0+n)*width-1]
			ropeAVX2(&q.Data[r0*width], uintptr(width)*4, &cos[0], &sin[0], uintptr(d)*2,
				&signs[0], n, heads, d8, uintptr(d)*4)
		}
	}
	if d&7 != 0 {
		ropeScalar(q, cos, sin, seqLen, heads, dir, (d&^7)/2)
	}
}

func (avx2Backend) CausalAttention(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int) {
	causalAttention(out, lse, q, k, v, heads, sq, sk, qOffset, 8)
}

func (avx2Backend) CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int) {
	causalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, heads, sq, sk, qOffset, 8)
}

// avx512Backend is the avx2 backend with 16 lanes on the five methods that
// reach gemm, attention's softmax tiles included; everything else — and
// every result bit — is avx2's.
type avx512Backend struct{ avx2Backend }

func (avx512Backend) Name() string { return "avx512" }

// AdamW runs the update eight elements to a vector of float64 lanes; the
// bits are avx2's and scalar's.
func (avx512Backend) AdamW(w, g, m, v []float32, s AdamWStep) { adamWSIMD(w, g, m, v, s, 8) }

func (avx512Backend) MatMulNN(dst, a, b *Tensor, acc bool) { matmulNN(dst, a, b, acc, 16) }
func (avx512Backend) MatMulNT(dst, a, b *Tensor, acc bool) { matmulNT(dst, a, b, acc, 16) }
func (avx512Backend) MatMulTN(dst, a, b *Tensor, acc bool) { matmulTN(dst, a, b, acc, 16) }

func (avx512Backend) CausalAttention(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int) {
	causalAttention(out, lse, q, k, v, heads, sq, sk, qOffset, 16)
}

func (avx512Backend) CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int) {
	causalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, heads, sq, sk, qOffset, 16)
}

// transposeScale writes dst[c·attnTileK + u] = scale·src[u·ld + c] for u < n,
// c < cols: a key tile — or, for NT, a panel of b rows — turned so that its
// rows run along rows of attnTileK, the b operand gemm wants. Whole 8×8
// blocks go through the shuffle kernel, the fringes through the loop; both
// round the one multiply alike, and a scale of 1 is exact.
func transposeScale(dst, src []float32, ld, n, cols int, scale float32) {
	_, _ = dst[(cols-1)*attnTileK+n-1], src[(n-1)*ld+cols-1]
	n8, c8 := n&^7, cols&^7
	if n8 > 0 && c8 > 0 {
		transposeScaleAVX2(&dst[0], attnTileK*4, &src[0], uintptr(ld)*4, n8>>3, c8>>3, scale)
	}
	if c8 < cols {
		for u := 0; u < n8; u++ {
			for c := c8; c < cols; c++ {
				dst[c*attnTileK+u] = scale * src[u*ld+c]
			}
		}
	}
	for u := n8; u < n; u++ {
		for c := 0; c < cols; c++ {
			dst[c*attnTileK+u] = scale * src[u*ld+c]
		}
	}
}

// simdAttnScoreTile is scoreTile as one product per attnTransCols head
// columns: the tile's scores are x[rows of the tile × d] · rowsᵀ[d × keys],
// with rowsᵀ — scaled on the way — transposed into scratch. Every score is
// one ascending FMA chain over d (see gemm); masked keys of the tile get
// scores too, which the walk ignores.
func simdAttnScoreTile(a *attnArgs, dst, scratch, x, rows []float32, t attnTile, scale float32) {
	d, ld := a.d, a.heads*a.d
	for c0 := 0; c0 < d; c0 += attnTransCols {
		cols := min(attnTransCols, d-c0)
		transposeScale(scratch, rows[c0:], ld, t.j1-t.j0, cols, scale)
		gemm(a.simd, x[t.rlo*ld+c0:], ld, 1, scratch, attnTileK,
			dst[(t.rlo-t.i0)*attnTileK:], attnTileK, t.i1-t.rlo, t.j1-t.j0, cols, c0 > 0)
	}
}

// simdAttnAddTile is addTile as dst[rows × d] += coef[rows × keys] ·
// rows[keys × d] over all the tile's keys: each dst element continues its
// one FMA chain through the keys in ascending order, and the zero
// coefficient of a masked key adds an exact zero — provided that key's row
// is finite: within a query tile, a NaN or Inf in a later token's row
// reaches the earlier rows of the tile.
func simdAttnAddTile(a *attnArgs, dst, coef, rows []float32, t attnTile) {
	ld := a.heads * a.d
	gemm(a.simd, coef[(t.rlo-t.i0)*attnTileK:], attnTileK, 1, rows, ld,
		dst[t.rlo*ld:], ld, t.i1-t.rlo, a.d, t.j1-t.j0, true)
}

// simdAttnAddTileT is addTileT as dst[keys × d] += coefᵀ[keys × rows] ·
// rows[rows × d], the TN form of the same kernel, over all the tile's rows.
func simdAttnAddTileT(a *attnArgs, dst, coef, rows []float32, t attnTile) {
	ld := a.heads * a.d
	gemm(a.simd, coef[(t.rlo-t.i0)*attnTileK:], 1, attnTileK, rows[t.rlo*ld:], ld,
		dst, ld, t.j1-t.j0, a.d, t.i1-t.rlo, true)
}

// simdAttnSoftmaxTile is softmaxTile as two kernel calls: the row maxima,
// whose 8-lane order is the contract at either width, then the rest at the
// backend's width. Row r of the tile sees min(w, diag + r − i0) keys, diag
// being what row i0 would see were the tile wide enough.
func simdAttnSoftmaxTile(a *attnArgs, s []float32, m, l *[attnTileQ]float32, out []float32, t attnTile) {
	var alpha [attnTileQ]float32
	ld := a.heads * a.d
	rows := t.i1 - t.i0
	_, _ = s[rows*attnTileK-1], out[(t.i1-1)*ld+a.d-1]
	r0, diag, w := t.rlo-t.i0, a.qOff+t.i0+1-t.j0, t.j1-t.j0
	attnRowMaxAVX2(&s[0], &m[0], &alpha[0], r0, rows, diag, w)
	if a.simd == 16 {
		attnSoftmaxAVX512(&s[0], &m[0], &l[0], &alpha[0], r0, rows, diag, w, &out[t.i0*ld], uintptr(ld)*4, a.d)
		return
	}
	attnSoftmaxAVX2(&s[0], &m[0], &l[0], &alpha[0], r0, rows, diag, w, &out[t.i0*ld], uintptr(ld)*4, a.d)
}

// simdAttnSoftmaxGradTile is softmaxGradTile as one kernel call at the
// backend's width.
func simdAttnSoftmaxGradTile(a *attnArgs, p, ds, lse []float32, delta *[attnTileQ]float32, t attnTile) {
	rows := t.i1 - t.i0
	_, _, _ = p[rows*attnTileK-1], ds[rows*attnTileK-1], lse[rows-1]
	r0, diag, w := t.rlo-t.i0, a.qOff+t.i0+1-t.j0, t.j1-t.j0
	if a.simd == 16 {
		attnSoftmaxGradAVX512(&p[0], &ds[0], &lse[0], &delta[0], r0, rows, diag, w, a.scale)
		return
	}
	attnSoftmaxGradAVX2(&p[0], &ds[0], &lse[0], &delta[0], r0, rows, diag, w, a.scale)
}

// simdExpSubRow is expSubRow on the vector exp: the full 8-blocks sum in 8
// lane chains combined by the balanced tree, then the len%8 tail — run
// through the same kernel on a padded copy — adds on ascending.
func simdExpSubRow(s []float32, shift, prev float32) (sum, alpha float32) {
	n8 := len(s) >> 3
	tail := s[n8<<3:]
	if n8 > 0 {
		sum, alpha = expSubAVX2(&s[0], n8, shift, prev)
		if len(tail) == 0 {
			return sum, alpha
		}
	}
	var buf [8]float32
	copy(buf[:], tail)
	_, alpha = expSubAVX2(&buf[0], 1, shift, prev)
	for j := range tail {
		tail[j] = buf[j]
		sum += buf[j]
	}
	return sum, alpha
}

// simdRowMax is rowMax; a maximum is exact in any order.
func simdRowMax(s []float32) float32 {
	n8 := len(s) >> 3
	m := rowMax(s[n8<<3:])
	if n8 > 0 {
		if x := rowMaxAVX2(&s[0], n8); x > m {
			m = x
		}
	}
	return m
}

// laneIndex numbers the lanes of a 16-lane vector: the avx512 attention
// kernels compare it with a row's visible length to mask a block.
var laneIndex = [16]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// gemmMask is the lane-mask table of gemmAVX2's 8-wide column tail: the
// eight int32 starting at index 8−w select the first w lanes.
var gemmMask = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// gemm computes the m×n block c = a·b (c += a·b when acc) on the register-
// tiled micro-kernel. Strides are in elements: a[i,p] sits at
// a[i·ars + p·aks], b[p,j] at b[p·ldb + j], c[i,j] at c[i·ldc + j]. Every c
// element is one ascending FMA chain over k — from 0, or from its own
// value when acc — in its own vector lane, so it is a pure function of its
// a row, its b column and k: independent of m, n, the tile it fell into and
// how callers split the rows or columns between calls — and of the kernel:
// at 16 lanes gemmAVX512 takes every row, in whole panels of 12 and then
// the m%12 rows in panels of 8, 4, 2 and 1; at 8, gemmAVX2 runs the same
// chains.
func gemm(w lanes, a []float32, ars, aks int, b []float32, ldb int, c []float32, ldc, m, n, k int, acc bool) {
	if m == 0 || n == 0 {
		return
	}
	_ = c[(m-1)*ldc+n-1]
	if k == 0 {
		// An empty product: nothing to read, and nothing to add.
		for i := 0; !acc && i < m; i++ {
			clear(c[i*ldc : i*ldc+n])
		}
		return
	}
	_, _ = a[(m-1)*ars+(k-1)*aks], b[(k-1)*ldb+n-1]
	if w == 16 {
		gemmAVX512(&a[0], uintptr(ars)*4, uintptr(aks)*4, &b[0], uintptr(ldb)*4, &c[0], uintptr(ldc)*4, m, n, k, acc)
		return
	}
	gemmAVX2(&a[0], uintptr(ars)*4, uintptr(aks)*4, &b[0], uintptr(ldb)*4, &c[0], uintptr(ldc)*4, m, n, k, acc)
}

// simdNNRange computes dst rows [lo, hi) of a·b: a[i,p] = ad[i·k + p].
func simdNNRange(g *mmArgs, lo, hi int) {
	gemm(g.simd, g.ad[lo*g.k:], g.k, 1, g.bd, g.n, g.dd[lo*g.n:], g.n, hi-lo, g.n, g.k, g.acc)
}

// simdTNRange computes dst rows [lo, hi) of aᵀ·b: the same kernel with a's
// strides swapped, a[i,p] = ad[p·m + i].
func simdTNRange(g *mmArgs, lo, hi int) {
	gemm(g.simd, g.ad[lo:], 1, g.m, g.bd, g.n, g.dd[lo*g.n:], g.n, hi-lo, g.n, g.k, g.acc)
}

// simdNTRange computes dst rows [lo, hi) of a·bᵀ on the same kernel, the way
// simdAttnScoreTile does: per panel of attnTileK b rows (dst columns) and per
// k block, that block of b is transposed into stack scratch and gemm
// continues every dst element's one FMA chain through it — so a·bᵀ is
// bit-equal to MatMul(a, transpose(b)). One path for every m: the transpose
// is paid once per panel, block and call, which only shows at m ≤ 4 (a
// single row runs at a third of a dot-shaped kernel's rate), and every NT
// caller is a BackwardInput with m = G·S rows; decode is forward-only NN.
func simdNTRange(g *mmArgs, lo, hi int) {
	n, k := g.n, g.k
	if lo == hi {
		return
	}
	if k == 0 {
		gemm(g.simd, nil, 0, 1, nil, attnTileK, g.dd[lo*n:], n, hi-lo, n, 0, g.acc)
		return
	}
	var bt [blockK * attnTileK]float32
	for j0 := 0; j0 < n; j0 += attnTileK {
		nb := min(attnTileK, n-j0)
		for k0 := 0; k0 < k; k0 += blockK {
			kb := min(blockK, k-k0)
			transposeScale(bt[:], g.bd[j0*k+k0:], k, nb, kb, 1)
			gemm(g.simd, g.ad[lo*k+k0:], k, 1, bt[:], attnTileK, g.dd[lo*n+j0:], n, hi-lo, nb, kb, g.acc || k0 > 0)
		}
	}
}
