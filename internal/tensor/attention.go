package tensor

import (
	"fmt"
	"math"
)

// Fused causal attention (Flash-Attention-2 style). The kernel walks
// query×key tiles with a running row max and row sum, so the [S,S] score
// and probability matrices never exist: forward keeps one key tile of
// scores per row, backward rebuilds each probability tile from q, k and the
// saved per-row log-sum-exp. Tiles wholly above the causal diagonal are
// never visited, and heads are read in place as strided column blocks of
// the [G·S, heads·d] operands.
//
// Determinism: the tile sizes are compile-time constants and key tiles
// always start at multiples of attnTileK, so every output element's
// accumulation order is a function of the shapes only. A query row's
// forward result does not depend on which query tile it sits in, and no
// output element is ever written by two work items: forward fans out over
// (g, head, query tile), backward over (g, head), which owns that head's
// dq, dk and dv columns outright.
//
// Per (query tile, key tile) the walk is five steps — score the tile, run
// each row's softmax leaves over the keys it sees, then fold the tile into
// the outputs — and the three tile products (scoreTile, addTile, addTileT)
// are the only steps a backend replaces wholesale: row by row on the Go
// leaves for scalar, as GEMM calls for the simd backends.

const (
	// attnTileQ is the query-row tile: how many rows reuse a key tile while
	// it is hot in L1.
	attnTileQ = 32
	// attnTileK is the key tile; an attnTileQ×attnTileK tile of scores
	// lives on the stack (two of them in backward). It is also the row
	// length transposeScale writes, and so the simd NT matmul's b panel.
	attnTileK = 64
	// attnTransCols is how many head columns of a key or value tile the
	// simd scoreTile transposes into the walk's scratch at a time; wider
	// heads take several passes, accumulating.
	attnTransCols = 32
)

// CausalAttention computes, for every batch element g and head h,
//
//	out = softmax(q·kᵀ/√d + causal mask)·v
//
// where q and out are [G·sq, heads·d], k and v are [G·sk, heads·d] and head
// h occupies columns [h·d, (h+1)·d). Query row i sits at global position
// qOffset+i and attends to keys 0..min(qOffset+i, sk-1); self-attention is
// sq == sk, qOffset == 0. lse, of G·heads·sq elements, receives each row's
// log-sum-exp of the scaled scores — all the backward pass needs besides
// q, k, v and out. out must not alias an input.
//
// Precondition: finite operands. On finite inputs row i is a function of
// tokens 0..qOffset+i alone, bit for bit, on every backend. A NaN or Inf in
// a later token's row is never read by an Exact backend, but the GEMM-tiled
// ones multiply it by a masked entry's zero coefficient, so it can turn the
// earlier rows of that token's own attnTileQ-row query tile non-finite (and
// likewise dq in backward). It never yields a finite wrong value, never
// crosses a query-tile boundary, and the token's own row is non-finite
// either way, so a step that contains one trips the trainers' non-finite
// gradient guard regardless (TestCausalAttentionNonFiniteFutureToken).
func CausalAttention(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int) {
	checkAttnShapes("CausalAttention", heads, sq, sk, qOffset, lse, []*Tensor{q, out}, []*Tensor{k, v})
	current().CausalAttention(out, lse, q, k, v, heads, sq, sk, qOffset)
}

// CausalAttentionBackward computes the gradients of CausalAttention's
// inputs given dout = ∂L/∂out and the forward's out and lse. dq is shaped
// like q, dk and dv like k; all three are overwritten. Each probability
// tile is recomputed as exp(q·kᵀ/√d − lse), with D = rowsum(dout ⊙ out)
// standing in for the softmax Jacobian's row dot.
func CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int) {
	checkAttnShapes("CausalAttentionBackward", heads, sq, sk, qOffset, lse,
		[]*Tensor{q, out, dout, dq}, []*Tensor{k, v, dk, dv})
	current().CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, heads, sq, sk, qOffset)
}

func checkAttnShapes(op string, heads, sq, sk, qOffset int, lse *Tensor, qLike, kLike []*Tensor) {
	q := qLike[0]
	width := q.Cols()
	ok := heads > 0 && sq > 0 && sk > 0 && qOffset >= 0 && width%heads == 0 && q.Rows()%sq == 0
	g := 0
	if ok {
		g = q.Rows() / sq
		ok = lse.Size() == g*heads*sq
	}
	for _, t := range qLike {
		ok = ok && t.Rows() == g*sq && t.Cols() == width
	}
	for _, t := range kLike {
		ok = ok && t.Rows() == g*sk && t.Cols() == width
	}
	if !ok {
		panic(fmt.Sprintf("tensor: %s shapes q %v k %v lse %v with heads=%d sq=%d sk=%d qOffset=%d",
			op, q.shape, kLike[0].shape, lse.shape, heads, sq, sk, qOffset))
	}
}

// attnArgs carries one attention call by value through the worker pool.
// simd selects the leaf primitives the shared tile walk runs on, the way
// mmArgs.simd selects a matmul range kernel.
type attnArgs struct {
	bwd              bool
	simd             lanes
	q, k, v, out     []float32
	lse              []float32
	dout, dq, dk, dv []float32
	g, heads, d      int
	sq, sk, qOff     int
	scale            float32
}

// attnScratch is the tile walk's working set: the score tile (forward's
// only one, backward's p), backward's ds tile, and the buffer the simd
// scoreTile transposes a key or value tile into. It lives on the stack of
// run, zeroed once per chunk of work items rather than once per tile.
type attnScratch struct {
	p, ds [attnTileQ * attnTileK]float32
	trans [attnTransCols * attnTileK]float32
}

// run executes work items [lo, hi): (g, head, query tile) triples in
// forward, (g, head) pairs in backward.
func (a *attnArgs) run(lo, hi int) {
	var w attnScratch
	if a.bwd {
		for it := lo; it < hi; it++ {
			attnBackwardHead(a, &w, it/a.heads, it%a.heads)
		}
		return
	}
	tiles := (a.sq + attnTileQ - 1) / attnTileQ
	for it := lo; it < hi; it++ {
		i0 := it % tiles * attnTileQ
		gh := it / tiles
		attnForwardTile(a, &w, gh/a.heads, gh%a.heads, i0, min(i0+attnTileQ, a.sq))
	}
}

func newAttnArgs(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int, simd lanes) attnArgs {
	d := q.Cols() / heads
	return attnArgs{
		q: q.Data, k: k.Data, v: v.Data, out: out.Data, lse: lse.Data,
		g: q.Rows() / sq, heads: heads, d: d, sq: sq, sk: sk, qOff: qOffset,
		scale: float32(1.0 / math.Sqrt(float64(d))), simd: simd,
	}
}

func causalAttention(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int, simd lanes) {
	args := newAttnArgs(out, lse, q, k, v, heads, sq, sk, qOffset, simd)
	tiles := (sq + attnTileQ - 1) / attnTileQ
	dispatchAttn(&args, args.g*heads*tiles)
}

func causalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int, simd lanes) {
	args := newAttnArgs(out, lse, q, k, v, heads, sq, sk, qOffset, simd)
	args.bwd = true
	args.dout, args.dq, args.dk, args.dv = dout.Data, dq.Data, dk.Data, dv.Data
	dispatchAttn(&args, args.g*heads)
}

// attnTile is one (query tile, key tile) pair of the walk: query rows
// [rlo, i1) of the tile that starts at row i0 — rows before rlo see none of
// these keys — against keys [j0, j1). Row r's entries of a tile buffer start
// at (r−i0)·attnTileK.
type attnTile struct{ i0, rlo, i1, j0, j1 int }

func (a *attnArgs) tile(i0, i1, j0, jmax int) attnTile {
	return attnTile{i0: i0, rlo: max(i0, j0-a.qOff), i1: i1, j0: j0, j1: min(j0+attnTileK, jmax)}
}

// visible is how many of the tile's keys row r attends to: the causal mask
// cuts the row off after its own position.
func (a *attnArgs) visible(t attnTile, r int) int { return min(t.j1, a.qOff+r+1) - t.j0 }

// attnForwardTile runs the online softmax for query rows [i0, i1) of one
// (g, head): for each key tile a row rescales its running sum and output by
// exp(m_old − m_new) and folds in the tile's exp(s − m_new) weights. The out
// row itself is the accumulator; it is normalised once at the end.
func attnForwardTile(a *attnArgs, w *attnScratch, gi, hi, i0, i1 int) {
	d, ld := a.d, a.heads*a.d
	qBase := gi*a.sq*ld + hi*d
	kBase := gi*a.sk*ld + hi*d
	lse := a.lse[(gi*a.heads+hi)*a.sq:]
	s, scratch := w.p[:], w.trans[:]
	var m, l [attnTileQ]float32
	for r := i0; r < i1; r++ {
		m[r-i0] = float32(math.Inf(-1))
		orow := a.out[qBase+r*ld : qBase+r*ld+d]
		for c := range orow {
			orow[c] = 0
		}
	}
	jmax := min(a.sk, a.qOff+i1)
	for j0 := 0; j0 < jmax; j0 += attnTileK {
		t := a.tile(i0, i1, j0, jmax)
		ktile, vtile := a.k[kBase+j0*ld:], a.v[kBase+j0*ld:]
		a.scoreTile(s, scratch, a.q[qBase:], ktile, t, a.scale)
		for r := t.rlo; r < i1; r++ {
			row := s[(r-i0)*attnTileK:][:t.j1-j0]
			sc := row[:a.visible(t, r)]
			mNew := m[r-i0]
			if x := a.rowMax(sc); x > mNew {
				mNew = x
			}
			sum, alpha := a.expSubRow(sc, mNew, m[r-i0])
			l[r-i0] = l[r-i0]*alpha + sum
			m[r-i0] = mNew
			if alpha != 1 {
				orow := a.out[qBase+r*ld : qBase+r*ld+d]
				for c := range orow {
					orow[c] *= alpha
				}
			}
			// A masked key carries no weight.
			clear(row[len(sc):])
		}
		a.addTile(a.out[qBase:], s, vtile, t)
	}
	for r := i0; r < i1; r++ {
		inv := 1 / l[r-i0]
		orow := a.out[qBase+r*ld : qBase+r*ld+d]
		for c := range orow {
			orow[c] *= inv
		}
		lse[r] = m[r-i0] + float32(math.Log(float64(l[r-i0])))
	}
}

// attnBackwardHead computes dq, dk and dv of one (g, head). Per tile pair
// it rebuilds p and ds = scale·p⊙(dp − D) into the tile buffers, then folds
// them into dq += ds·k, dv += pᵀ·dout and dk += dsᵀ·q. dk and dv rows
// accumulate over query rows in ascending order.
func attnBackwardHead(a *attnArgs, w *attnScratch, gi, hi int) {
	d, ld := a.d, a.heads*a.d
	qBase := gi*a.sq*ld + hi*d
	kBase := gi*a.sk*ld + hi*d
	lse := a.lse[(gi*a.heads+hi)*a.sq:]
	for r := 0; r < a.sq; r++ {
		row := a.dq[qBase+r*ld : qBase+r*ld+d]
		for c := range row {
			row[c] = 0
		}
	}
	for j := 0; j < a.sk; j++ {
		kr, vr := a.dk[kBase+j*ld:kBase+j*ld+d], a.dv[kBase+j*ld:kBase+j*ld+d]
		for c := range kr {
			kr[c], vr[c] = 0, 0
		}
	}
	p, ds, scratch := w.p[:], w.ds[:], w.trans[:]
	var delta [attnTileQ]float32
	for i0 := 0; i0 < a.sq; i0 += attnTileQ {
		i1 := min(i0+attnTileQ, a.sq)
		for r := i0; r < i1; r++ {
			delta[r-i0] = dotF32Scalar(a.dout[qBase+r*ld:qBase+r*ld+d], a.out[qBase+r*ld:qBase+r*ld+d])
		}
		jmax := min(a.sk, a.qOff+i1)
		for j0 := 0; j0 < jmax; j0 += attnTileK {
			t := a.tile(i0, i1, j0, jmax)
			ktile, vtile := a.k[kBase+j0*ld:], a.v[kBase+j0*ld:]
			a.scoreTile(p, scratch, a.q[qBase:], ktile, t, a.scale)
			a.scoreTile(ds, scratch, a.dout[qBase:], vtile, t, 1)
			for r := t.rlo; r < i1; r++ {
				at, n := (r-i0)*attnTileK, a.visible(t, r)
				a.expSubRow(p[at:at+n], lse[r], lse[r])
				a.dsRow(ds[at:at+n], p[at:at+n], a.scale, delta[r-i0])
				// A masked key has no probability and passes no gradient.
				clear(p[at+n : at+t.j1-j0])
				clear(ds[at+n : at+t.j1-j0])
			}
			a.addTile(a.dq[qBase:], ds, ktile, t)
			a.addTileT(a.dv[kBase+j0*ld:], p, a.dout[qBase:], t)
			a.addTileT(a.dk[kBase+j0*ld:], ds, a.q[qBase:], t)
		}
	}
}

// The leaves of the tile walk. The simd versions are linked statically
// (build-tagged stubs fall back to the Go loops), like the matmul range
// kernels. Either way an element's result is a pure function of the operand
// rows it is defined over — never of the tile or work item that computed it.

// scoreTile writes dst[(r−i0)·attnTileK + u] = scale · x_r·rows_u for every
// row r of the tile and every key u it sees; x_r is the d elements at
// x[r·ld:], rows_u those at rows[u·ld:]. Entries of masked keys are left
// unspecified. scratch is the simd leaves' transposition buffer.
func (a *attnArgs) scoreTile(dst, scratch, x, rows []float32, t attnTile, scale float32) {
	if a.simd > 0 {
		simdAttnScoreTile(a, dst, scratch, x, rows, t, scale)
		return
	}
	d, ld := a.d, a.heads*a.d
	for r := t.rlo; r < t.i1; r++ {
		attnDotRows(dst[(r-t.i0)*attnTileK:][:a.visible(t, r)], x[r*ld:r*ld+d], rows, ld, scale)
	}
}

// addTile computes dst_r += Σ_u coef[(r−i0)·attnTileK + u] · rows_u over the
// keys u row r sees, for every row of the tile. The walk has zeroed the
// coefficients of masked keys, so a leaf may as well sum over the whole tile.
func (a *attnArgs) addTile(dst, coef, rows []float32, t attnTile) {
	if a.simd > 0 {
		simdAttnAddTile(a, dst, coef, rows, t)
		return
	}
	d, ld := a.d, a.heads*a.d
	for r := t.rlo; r < t.i1; r++ {
		attnAxpyRows(dst[r*ld:r*ld+d], coef[(r-t.i0)*attnTileK:], 1, a.visible(t, r), rows, ld)
	}
}

// addTileT is addTile transposed: dst_u += Σ_r coef[(r−i0)·attnTileK + u] ·
// rows_r over the rows r that see key u, ascending, for every key of the
// tile; dst_u is the d elements at dst[u·ld:].
func (a *attnArgs) addTileT(dst, coef, rows []float32, t attnTile) {
	if a.simd > 0 {
		simdAttnAddTileT(a, dst, coef, rows, t)
		return
	}
	d, ld := a.d, a.heads*a.d
	for j := t.j0; j < t.j1; j++ {
		// Rows before rs see key j masked.
		rs := max(t.rlo, j-a.qOff)
		at := (rs-t.i0)*attnTileK + j - t.j0
		attnAxpyRows(dst[(j-t.j0)*ld:][:d], coef[at:], attnTileK, t.i1-rs, rows[rs*ld:], ld)
	}
}

func (a *attnArgs) expSubRow(s []float32, shift, prev float32) (sum, alpha float32) {
	if a.simd > 0 {
		return simdExpSubRow(s, shift, prev)
	}
	return expSubRow(s, shift, prev)
}

func (a *attnArgs) rowMax(s []float32) float32 {
	if a.simd > 0 {
		return simdRowMax(s)
	}
	return rowMax(s)
}

func (a *attnArgs) dsRow(ds, p []float32, scale, delta float32) {
	if a.simd > 0 {
		simdAttnDsRow(ds, p, scale, delta)
		return
	}
	attnDsRow(ds, p, scale, delta)
}

// attnDotRows computes dst[t] = scale · x·rows_t for t < len(dst), where
// rows_t is the len(x) elements at rows[t·ld:]. Four rows share one pass
// over x, each with its own ascending accumulator chain.
func attnDotRows(dst, x, rows []float32, ld int, scale float32) {
	d := len(x)
	t := 0
	for ; t+3 < len(dst); t += 4 {
		// Reslicing to len(x) lets the compiler drop the inner bounds checks.
		r0 := rows[t*ld : t*ld+d][:len(x)]
		r1 := rows[(t+1)*ld : (t+1)*ld+d][:len(x)]
		r2 := rows[(t+2)*ld : (t+2)*ld+d][:len(x)]
		r3 := rows[(t+3)*ld : (t+3)*ld+d][:len(x)]
		var s0, s1, s2, s3 float32
		for c, xv := range x {
			s0 += xv * r0[c]
			s1 += xv * r1[c]
			s2 += xv * r2[c]
			s3 += xv * r3[c]
		}
		dst[t], dst[t+1], dst[t+2], dst[t+3] = scale*s0, scale*s1, scale*s2, scale*s3
	}
	for ; t < len(dst); t++ {
		dst[t] = scale * dotF32Scalar(x, rows[t*ld:t*ld+d])
	}
}

// attnAxpyRows computes dst += Σ_{t<n} coef[t·cstride] · rows_t (rows_t as in
// attnDotRows), four rows per pass over dst.
func attnAxpyRows(dst, coef []float32, cstride, n int, rows []float32, ld int) {
	d := len(dst)
	t := 0
	for ; t+3 < n; t += 4 {
		c0, c1, c2, c3 := coef[t*cstride], coef[(t+1)*cstride], coef[(t+2)*cstride], coef[(t+3)*cstride]
		r0 := rows[t*ld : t*ld+d][:len(dst)]
		r1 := rows[(t+1)*ld : (t+1)*ld+d][:len(dst)]
		r2 := rows[(t+2)*ld : (t+2)*ld+d][:len(dst)]
		r3 := rows[(t+3)*ld : (t+3)*ld+d][:len(dst)]
		for c := range dst {
			dst[c] += c0*r0[c] + c1*r1[c] + c2*r2[c] + c3*r3[c]
		}
	}
	for ; t < n; t++ {
		cv := coef[t*cstride]
		row := rows[t*ld : t*ld+d][:len(dst)]
		for c := range dst {
			dst[c] += cv * row[c]
		}
	}
}

// expSubRow overwrites s[j] with expNeg(s[j] − shift) and returns the sum of
// the results, accumulated ascending, and alpha = expNeg(prev − shift): with
// shift the new running maximum and prev the old one, the factor the online
// softmax rescales its running sum and output by. Most tiles leave the
// maximum where it was, and expNeg(0) is exactly 1.
func expSubRow(s []float32, shift, prev float32) (sum, alpha float32) {
	for j, x := range s {
		e := expNeg(x - shift)
		s[j] = e
		sum += e
	}
	if prev == shift {
		return sum, 1
	}
	return sum, expNeg(prev - shift)
}

// rowMax returns the largest element of s (−Inf if none compares greater).
func rowMax(s []float32) float32 {
	m := float32(math.Inf(-1))
	for _, x := range s {
		if x > m {
			m = x
		}
	}
	return m
}

// attnDsRow overwrites ds[j] = dp_j with scale·p_j·(dp_j − delta), the
// softmax Jacobian applied to one row.
func attnDsRow(ds, p []float32, scale, delta float32) {
	for j, pv := range p[:len(ds)] {
		ds[j] = scale * pv * (ds[j] - delta)
	}
}

const (
	// expUnderflow is the smallest argument expNeg does not flush to zero:
	// the float32 just above ln(2⁻¹²⁶), below which eˣ is subnormal.
	expUnderflow = -87.33654
	expLog2e     = 1.44269504088896341
	// ln 2 split so that n·expLn2Hi is exact for |n| ≤ 2⁸.
	expLn2Hi = 0.693359375
	expLn2Lo = -2.12194440e-4
	// eʳ ≈ 1 + r + r²·P(r) on |r| ≤ ln2/2: the Cephes expf polynomial,
	// highest degree first.
	expP0 = 1.9875691500e-4
	expP1 = 1.3981999507e-3
	expP2 = 8.3334519073e-3
	expP3 = 4.1665795894e-2
	expP4 = 1.6666665459e-1
	expP5 = 5.0000001201e-1
)

// expNeg returns eˣ for x ≤ 0 in float32 arithmetic: x = n·ln2 + r with
// |r| ≤ ln2/2, eʳ from a fixed degree-7 polynomial, scaled by 2ⁿ through
// the exponent bits. Exactly 1 at 0, exactly 0 below expUnderflow (and at
// −Inf), monotone, within 2 ULP of the correctly rounded value in between;
// NaN propagates. The avx2 backend's vector exp (simd_avx2_amd64.s) keeps
// this contract and these constants eight lanes at a time, but fuses its
// multiply-adds, so the two may differ by an ULP.
func expNeg(x float32) float32 {
	if x < expUnderflow {
		return 0
	}
	n := int32(x*expLog2e - 0.5) // round to nearest: the operand is ≤ 0
	fn := float32(n)
	r := x - fn*expLn2Hi - fn*expLn2Lo
	p := float32(expP0)
	p = p*r + expP1
	p = p*r + expP2
	p = p*r + expP3
	p = p*r + expP4
	p = p*r + expP5
	p = p*(r*r) + r + 1
	return p * math.Float32frombits(uint32(n+127)<<23)
}
