//go:build !noasm

package tensor

// AVX2 backend: Go-side drivers for the assembly kernels in
// simd_avx2_amd64.s. Registered at init when the CPU supports AVX2+FMA,
// and then the process default (backend.go); SetBackend("scalar") pins the
// bit-exactness oracle instead.
//
// Exactness partition (see DESIGN.md §13):
//
//   - NN and TN matmuls, Axpy, Scale, AddInto: vectorized across
//     independent output elements with the scalar per-element rounding
//     sequence (separate mul/add, no FMA) — bit-identical to scalar.
//   - NT matmul and DotF32: dot-product shaped, vectorized along the
//     reduction axis with 8 FMA lane chains and a fixed balanced
//     combine tree — reassociated relative to scalar, hence tolerance
//     mode. The order is a pure function of the shapes (never the
//     worker chunking), so results stay deterministic and every
//     strategy remains bit-identical to every other under this backend.
//   - CausalAttention and its backward: the shared tile walk of
//     attention.go on assembly leaves — the score dot (the NT per-column
//     contract, 8 keys per pass), the row axpy (four FMA chains per output
//     element, combined (c0+c1)+(c2+c3)) and the 8-wide expNeg with its
//     lane-split row sum, plus the row maximum and the Jacobian row, which
//     are exact. Tolerance mode, bounded against the float64 reference;
//     every leaf's order is a pure function of its operand shapes.
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
func nnQuadAVX2(drow, b0, b1, b2, b3 *float32, n8 int, a0, a1, a2, a3 float32)

//go:noescape
func ntQuad2AVX2(a0, a1, b *float32, k8, kstride int, out *float32)

//go:noescape
func ntQuad1AVX2(a, b *float32, k8, kstride int, out *float32)

//go:noescape
func attnDotAVX2(dst, x, rows *float32, n, d8, ld int, scale float32)

//go:noescape
func attnAxpyAVX2(dst, coef, rows *float32, n, d8, cstride, ld int)

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

// Exact is false because the NT matmul, DotF32 and the attention leaves
// use FMA lane chains (reassociated relative to the scalar reference) and
// SiLU takes its sigmoid from the float32 vector exp. The other primitives
// are bit-identical to scalar; the equivalence suite enforces both halves
// of this contract.
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

func (avx2Backend) AddInto(dst, a *Tensor) {
	d, src := dst.Data, a.Data
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

// simdAttnDotRows is attnDotRows on the NT per-column contract (see
// simdNTRange): for each key, 8 ascending FMA lane chains over x, the
// balanced tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)), the d%8 remainder
// folded in ascending with one mul+add per element, then one multiply by
// scale. Keys run 8 per pass, the last n%8 one at a time, to the same
// per-key order.
func simdAttnDotRows(dst, x, rows []float32, ld int, scale float32) {
	n, d := len(dst), len(x)
	if n == 0 {
		return
	}
	_ = rows[(n-1)*ld+d-1]
	d8 := d >> 3
	if d8<<3 == d {
		attnDotAVX2(&dst[0], &x[0], &rows[0], n, d8, ld*4, scale)
		return
	}
	attnDotAVX2(&dst[0], &x[0], &rows[0], n, d8, ld*4, 1)
	for t := range dst {
		s := dst[t]
		row := rows[t*ld : t*ld+d]
		for c := d8 << 3; c < d; c++ {
			s += x[c] * row[c]
		}
		dst[t] = s * scale
	}
}

// simdAttnAxpyRows is attnAxpyRows with four FMA chains per dst element:
// chain i folds rows t ≡ i (mod 4) ascending, then
// dst += (c0+c1) + (c2+c3). The d%8 trailing columns fold every row in
// ascending with one mul+add each.
func simdAttnAxpyRows(dst, coef []float32, cstride, n int, rows []float32, ld int) {
	d := len(dst)
	if n == 0 {
		return
	}
	_, _ = coef[(n-1)*cstride], rows[(n-1)*ld+d-1]
	d8 := d >> 3
	if d8 > 0 {
		attnAxpyAVX2(&dst[0], &coef[0], &rows[0], n, d8, cstride*4, ld*4)
	}
	for c := d8 << 3; c < d; c++ {
		s := dst[c]
		for t := 0; t < n; t++ {
			s += coef[t*cstride] * rows[t*ld+c]
		}
		dst[c] = s
	}
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

// simdNNRange is the AVX2 NN kernel over dst rows [lo, hi). Same blocking
// and identical per-element accumulation order as mmNNRange: the k-quad
// body runs through nnQuadAVX2 (mul/add, no FMA) and the j/k remainders
// run the scalar expressions, so the result is bit-identical to scalar.
func simdNNRange(g *mmArgs, lo, hi int) {
	ad, bd, dd := g.ad, g.bd, g.dd
	n, k := g.n, g.k
	if !g.acc {
		for i := lo; i < hi; i++ {
			row := dd[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := j0 + blockN
		if j1 > n {
			j1 = n
		}
		jw := j1 - j0
		j8 := jw &^ 7
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := k0 + blockK
			if k1 > k {
				k1 = k
			}
			for i := lo; i < hi; i++ {
				arow := ad[i*k : (i+1)*k]
				drow := dd[i*n+j0 : i*n+j1]
				p := k0
				for ; p+3 < k1; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					b0 := bd[p*n+j0 : p*n+j1]
					b1 := bd[(p+1)*n+j0 : (p+1)*n+j1]
					b2 := bd[(p+2)*n+j0 : (p+2)*n+j1]
					b3 := bd[(p+3)*n+j0 : (p+3)*n+j1]
					if j8 > 0 {
						nnQuadAVX2(&drow[0], &b0[0], &b1[0], &b2[0], &b3[0], j8>>3, a0, a1, a2, a3)
					}
					for j := j8; j < jw; j++ {
						drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; p < k1; p++ {
					av := arow[p]
					brow := bd[p*n+j0 : p*n+j1]
					if j8 > 0 {
						axpyAVX2(&drow[0], &brow[0], j8>>3, av)
					}
					for j := j8; j < jw; j++ {
						drow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// simdTNRange mirrors simdNNRange for aᵀ·b; only the four a loads differ
// (strided a[p..p+3][i]). Bit-identical to mmTNRange.
func simdTNRange(g *mmArgs, lo, hi int) {
	ad, bd, dd := g.ad, g.bd, g.dd
	m, n, k := g.m, g.n, g.k
	if !g.acc {
		for i := lo; i < hi; i++ {
			row := dd[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := j0 + blockN
		if j1 > n {
			j1 = n
		}
		jw := j1 - j0
		j8 := jw &^ 7
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := k0 + blockK
			if k1 > k {
				k1 = k
			}
			for i := lo; i < hi; i++ {
				drow := dd[i*n+j0 : i*n+j1]
				p := k0
				for ; p+3 < k1; p += 4 {
					a0 := ad[p*m+i]
					a1 := ad[(p+1)*m+i]
					a2 := ad[(p+2)*m+i]
					a3 := ad[(p+3)*m+i]
					b0 := bd[p*n+j0 : p*n+j1]
					b1 := bd[(p+1)*n+j0 : (p+1)*n+j1]
					b2 := bd[(p+2)*n+j0 : (p+2)*n+j1]
					b3 := bd[(p+3)*n+j0 : (p+3)*n+j1]
					if j8 > 0 {
						nnQuadAVX2(&drow[0], &b0[0], &b1[0], &b2[0], &b3[0], j8>>3, a0, a1, a2, a3)
					}
					for j := j8; j < jw; j++ {
						drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; p < k1; p++ {
					av := ad[p*m+i]
					brow := bd[p*n+j0 : p*n+j1]
					if j8 > 0 {
						axpyAVX2(&drow[0], &brow[0], j8>>3, av)
					}
					for j := j8; j < jw; j++ {
						drow[j] += av * brow[j]
					}
				}
			}
		}
	}
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
