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
//     with gemm's rows in whole panels of 12 on the 16-lane micro-kernel
//     (gemmAVX512, simd_avx512_amd64.s) and the rest on the 8-lane one.
//   - Add, Mul, Axpy, Scale, AddInto: vectorized across independent output
//     elements with the scalar per-element rounding sequence (separate
//     mul/add, no FMA) — bit-identical to scalar.
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
//     chain continued from tile to tile — and, per row, the 8-wide expNeg
//     with its lane-split row sum, plus the row maximum and the Jacobian
//     row, which are exact. Tolerance mode, bounded against the float64
//     reference; every element's order is a pure function of the shapes.
//   - SiLU and its backward: sigmoid from the same vector expNeg of −|v|
//     in float32, where scalar rounds a float64 math.Exp — tolerance mode.
//   - Dot (float64), Softmax, RMSNorm: delegate to the scalar kernels
//     (float64 accumulation or exp/sqrt over few elements).

//go:noescape
func axpyAVX2(dst, a *float32, n8 int, s float32)

//go:noescape
func scaleAVX2(dst, a *float32, n8 int, s float32)

//go:noescape
func addIntoAVX2(dst, a *float32, n8 int)

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
func attnDsAVX2(ds, p *float32, n8 int, scale, delta float32)

//go:noescape
func siluAVX2(dst, a *float32, n8 int)

//go:noescape
func siluBackwardAVX2(dst, x, dy *float32, n8 int)

//go:noescape
func fmaSpinAVX2(iters int)

//go:noescape
func fmaSpinAVX512(iters int)

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
// scalar reference) and SiLU takes its sigmoid from the float32 vector
// exp. The other primitives are bit-identical to scalar; the equivalence
// suite enforces both halves of this contract.
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

func (avx2Backend) Scale(dst, a *Tensor, s float32) {
	d, src := dst.Data, a.Data
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

func (avx2Backend) SoftmaxRows(dst, a *Tensor)             { softmaxRowsScalar(dst, a) }
func (avx2Backend) SoftmaxRowsBackward(dst, y, dy *Tensor) { softmaxRowsBackwardScalar(dst, y, dy) }

func (avx2Backend) RMSNormRows(y, inv, x, gain *Tensor, eps float64) {
	rmsNormRowsScalar(y, inv, x, gain, eps)
}

func (avx2Backend) CausalAttention(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int) {
	causalAttention(out, lse, q, k, v, heads, sq, sk, qOffset, 8)
}

func (avx2Backend) CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int) {
	causalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, heads, sq, sk, qOffset, 8)
}

// avx512Backend is the avx2 backend with the width of gemm raised to 16
// lanes on the five methods that reach it; everything else — and every
// result bit — is avx2's.
type avx512Backend struct{ avx2Backend }

func (avx512Backend) Name() string { return "avx512" }

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
	for u := 0; u < n; u++ {
		row := src[u*ld : u*ld+cols]
		c := c8
		if u >= n8 {
			c = 0
		}
		for ; c < cols; c++ {
			dst[c*attnTileK+u] = scale * row[c]
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

// simdAttnDsRow is attnDsRow, vectorized with the scalar rounding sequence:
// bit-identical to it.
func simdAttnDsRow(ds, p []float32, scale, delta float32) {
	p = p[:len(ds)]
	n8 := len(ds) >> 3
	if n8 > 0 {
		attnDsAVX2(&ds[0], &p[0], n8, scale, delta)
	}
	attnDsRow(ds[n8<<3:], p[n8<<3:], scale, delta)
}

// gemmMask is the lane-mask table of gemmAVX2's 8-wide column tail: the
// eight int32 starting at index 8−w select the first w lanes.
var gemmMask = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// gemmPanel512 is the one panel height of gemmAVX512.
const gemmPanel512 = 12

// gemm computes the m×n block c = a·b (c += a·b when acc) on the register-
// tiled micro-kernel. Strides are in elements: a[i,p] sits at
// a[i·ars + p·aks], b[p,j] at b[p·ldb + j], c[i,j] at c[i·ldc + j]. Every c
// element is one ascending FMA chain over k — from 0, or from its own
// value when acc — in its own vector lane, so it is a pure function of its
// a row, its b column and k: independent of m, n, the tile it fell into and
// how callers split the rows or columns between calls — and of the kernel:
// at 16 lanes the rows go in whole panels of 12 to gemmAVX512 and the last
// m%12 to gemmAVX2, which runs the same chain 8 lanes at a time.
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
	if w == 16 && m >= gemmPanel512 {
		wide := m - m%gemmPanel512
		gemmAVX512(&a[0], uintptr(ars)*4, uintptr(aks)*4, &b[0], uintptr(ldb)*4, &c[0], uintptr(ldc)*4, wide, n, k, acc)
		if wide == m {
			return
		}
		a, c, m = a[wide*ars:], c[wide*ldc:], m-wide
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
