//go:build !noasm

package tensor

// AVX2 backend: Go-side drivers for the assembly kernels in
// simd_avx2_amd64.s. Registered at init when the CPU supports AVX2+FMA,
// and then the process default (backend.go); SetBackend("scalar") pins the
// bit-exactness oracle instead.
//
// Exactness partition (see DESIGN.md §13):
//
//   - Axpy, Scale, AddInto: vectorized across independent output elements
//     with the scalar per-element rounding sequence (separate mul/add, no
//     FMA) — bit-identical to scalar.
//   - NN and TN matmuls: the register-tiled GEMM micro-kernel (gemmAVX2).
//     Every dst element is one ascending FMA chain over k in its own lane,
//     from 0 or — accumulating — from dst: fused where scalar rounds the
//     product and the sum separately, hence tolerance mode. The chain is a
//     pure function of the element's a row, b column and k — never of m,
//     the tile, or the worker chunk.
//   - NT matmul and DotF32: dot-product shaped, vectorized along the
//     reduction axis with 8 FMA lane chains and a fixed balanced
//     combine tree — reassociated relative to scalar, hence tolerance
//     mode. The order is a pure function of the shapes (never the
//     worker chunking), so results stay deterministic and every
//     strategy remains bit-identical to every other under this backend.
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
func dotAVX2(a, b *float32, n int) float32

//go:noescape
func gemmAVX2(a *float32, ars, aks uintptr, b *float32, ldb uintptr, c *float32, ldc uintptr, m, n, k int, acc bool)

//go:noescape
func ntQuad2AVX2(a0, a1, b *float32, k8, kstride int, out *float32)

//go:noescape
func ntQuad1AVX2(a, b *float32, k8, kstride int, out *float32)

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

// SIMDCompiled reports whether this build carries the assembly kernels:
// true on amd64 without the noasm tag, whatever the CPU turns out to support.
const SIMDCompiled = true

func registerSIMDBackends() {
	if cpuHasAVX2FMA() {
		registerBackend(avx2Backend{})
	}
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
// run on FMA chains (fused, and for NT and DotF32 reassociated, relative to
// the scalar reference) and SiLU takes its sigmoid from the float32 vector
// exp. The other primitives are bit-identical to scalar; the equivalence
// suite enforces both halves of this contract.
func (avx2Backend) Exact() bool { return false }

func (avx2Backend) MatMulNN(dst, a, b *Tensor, acc bool) { matmulNN(dst, a, b, acc, true) }
func (avx2Backend) MatMulNT(dst, a, b *Tensor, acc bool) { matmulNT(dst, a, b, acc, true) }
func (avx2Backend) MatMulTN(dst, a, b *Tensor, acc bool) { matmulTN(dst, a, b, acc, true) }

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
	causalAttention(out, lse, q, k, v, heads, sq, sk, qOffset, true)
}

func (avx2Backend) CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int) {
	causalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, heads, sq, sk, qOffset, true)
}

// transposeScale writes dst[c·attnTileK + u] = scale·src[u·ld + c] for u < n,
// c < cols: a key (or value) tile turned so that keys run along rows of
// attnTileK, the b operand gemm wants. Whole 8×8 blocks go through the
// shuffle kernel, the fringes through the loop; both round the one multiply
// alike.
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
		gemm(x[t.rlo*ld+c0:], ld, 1, scratch, attnTileK,
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
	gemm(coef[(t.rlo-t.i0)*attnTileK:], attnTileK, 1, rows, ld,
		dst[t.rlo*ld:], ld, t.i1-t.rlo, a.d, t.j1-t.j0, true)
}

// simdAttnAddTileT is addTileT as dst[keys × d] += coefᵀ[keys × rows] ·
// rows[rows × d], the TN form of the same kernel, over all the tile's rows.
func simdAttnAddTileT(a *attnArgs, dst, coef, rows []float32, t attnTile) {
	ld := a.heads * a.d
	gemm(coef[(t.rlo-t.i0)*attnTileK:], 1, attnTileK, rows[t.rlo*ld:], ld,
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

// gemm computes the m×n block c = a·b (c += a·b when acc) on the register-
// tiled micro-kernel. Strides are in elements: a[i,p] sits at
// a[i·ars + p·aks], b[p,j] at b[p·ldb + j], c[i,j] at c[i·ldc + j]. Every c
// element is one ascending FMA chain over k — from 0, or from its own
// value when acc — in its own vector lane, so it is a pure function of its
// a row, its b column and k: independent of m, n, the tile it fell into and
// how callers split the rows or columns between calls.
func gemm(a []float32, ars, aks int, b []float32, ldb int, c []float32, ldc, m, n, k int, acc bool) {
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
	gemmAVX2(&a[0], uintptr(ars)*4, uintptr(aks)*4, &b[0], uintptr(ldb)*4, &c[0], uintptr(ldc)*4, m, n, k, acc)
}

// simdNNRange computes dst rows [lo, hi) of a·b: a[i,p] = ad[i·k + p].
func simdNNRange(g *mmArgs, lo, hi int) {
	gemm(g.ad[lo*g.k:], g.k, 1, g.bd, g.n, g.dd[lo*g.n:], g.n, hi-lo, g.n, g.k, g.acc)
}

// simdTNRange computes dst rows [lo, hi) of aᵀ·b: the same kernel with a's
// strides swapped, a[i,p] = ad[p·m + i].
func simdTNRange(g *mmArgs, lo, hi int) {
	gemm(g.ad[lo:], 1, g.m, g.bd, g.n, g.dd[lo*g.n:], g.n, hi-lo, g.n, g.k, g.acc)
}

// simdNTRange is the AVX2 NT kernel over dst rows [lo, hi): 2 dst rows ×
// 4 columns register blocking through ntQuad2AVX2, each b vector feeding
// two FMAs. Rows pair on global parity (2t with 2t+1) so the pairing —
// and with it every element's accumulation order — is independent of the
// worker chunking; a chunk-boundary row runs the single-row kernel, which
// follows the identical per-column contract.
//
// Per-column contract (shared by ntQuad2AVX2, ntQuad1AVX2 and dotAVX2):
// main sum = 8 ascending FMA lane chains combined by the balanced tree
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)); the k%8 remainder folds in
// ascending with one mul+add per element; finally dst = sum (store) or
// dst += sum (accumulate).
func simdNTRange(g *mmArgs, lo, hi int) {
	ad, bd, dd := g.ad, g.bd, g.dd
	n, k := g.n, g.k
	k8 := k >> 3
	kTail := k8 << 3
	kstride := k * 4
	nq := n >> 2
	var out [8]float32
	i := lo
	if i < hi && i&1 == 1 {
		ntRowSIMD(g, i, nq, k8, kTail, kstride)
		i++
	}
	for ; i+1 < hi; i += 2 {
		arow0 := ad[i*k : (i+1)*k]
		arow1 := ad[(i+1)*k : (i+2)*k]
		drow0 := dd[i*n : (i+1)*n]
		drow1 := dd[(i+1)*n : (i+2)*n]
		for q := 0; q < nq; q++ {
			j := q * 4
			if k8 > 0 {
				ntQuad2AVX2(&arow0[0], &arow1[0], &bd[j*k], k8, kstride, &out[0])
			} else {
				out = [8]float32{}
			}
			for c := 0; c < 4; c++ {
				s0, s1 := out[c], out[4+c]
				brow := bd[(j+c)*k : (j+c+1)*k]
				for p := kTail; p < k; p++ {
					s0 += arow0[p] * brow[p]
					s1 += arow1[p] * brow[p]
				}
				if g.acc {
					drow0[j+c] += s0
					drow1[j+c] += s1
				} else {
					drow0[j+c] = s0
					drow1[j+c] = s1
				}
			}
		}
		for j := nq * 4; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s0, s1 float32
			if k > 0 {
				s0 = dotAVX2(&arow0[0], &brow[0], k)
				s1 = dotAVX2(&arow1[0], &brow[0], k)
			}
			if g.acc {
				drow0[j] += s0
				drow1[j] += s1
			} else {
				drow0[j] = s0
				drow1[j] = s1
			}
		}
	}
	if i < hi {
		ntRowSIMD(g, i, nq, k8, kTail, kstride)
	}
}

// ntRowSIMD computes one NT dst row with the single-row kernel, following
// exactly the per-column contract of the pair path.
func ntRowSIMD(g *mmArgs, i, nq, k8, kTail, kstride int) {
	ad, bd, dd := g.ad, g.bd, g.dd
	n, k := g.n, g.k
	arow := ad[i*k : (i+1)*k]
	drow := dd[i*n : (i+1)*n]
	var out [4]float32
	for q := 0; q < nq; q++ {
		j := q * 4
		if k8 > 0 {
			ntQuad1AVX2(&arow[0], &bd[j*k], k8, kstride, &out[0])
		} else {
			out = [4]float32{}
		}
		for c := 0; c < 4; c++ {
			s := out[c]
			brow := bd[(j+c)*k : (j+c+1)*k]
			for p := kTail; p < k; p++ {
				s += arow[p] * brow[p]
			}
			if g.acc {
				drow[j+c] += s
			} else {
				drow[j+c] = s
			}
		}
	}
	for j := nq * 4; j < n; j++ {
		brow := bd[j*k : (j+1)*k]
		var s float32
		if k > 0 {
			s = dotAVX2(&arow[0], &brow[0], k)
		}
		if g.acc {
			drow[j] += s
		} else {
			drow[j] = s
		}
	}
}
