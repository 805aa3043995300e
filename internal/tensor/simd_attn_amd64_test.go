//go:build !noasm

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vecExp evaluates the vector exp on one value, in the given lane of a full
// block with the other lanes holding unrelated arguments.
func vecExp(x float32, lane int) float32 {
	buf := [8]float32{-1, -2.5, -40, 0, -0.3, -87, -7, -100}
	buf[lane] = x
	simdExpSubRow(buf[:], 0, 0)
	return buf[lane]
}

// The vector exp honours expNeg's contract in every lane.
func TestVectorExpAccuracy(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	checkExpAccuracy(t, func(x float32) float32 { return vecExp(x, 0) })
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		x := -float32(rng.Float64() * 95)
		want := vecExp(x, 0)
		for lane := 1; lane < 8; lane++ {
			if got := vecExp(x, lane); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("exp(%v) = %g in lane %d, %g in lane 0", x, got, lane, want)
			}
		}
	}
}

// simdExpSubRow on every length around the block size: an element's result
// does not depend on its position (block lane or padded tail), the sum
// follows the documented order, and alpha is the same function of
// prev − shift.
func TestSIMDExpSubRowTailsAndSum(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := rand.New(rand.NewSource(32))
	for n := 1; n <= 2*attnTileK/3; n++ {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64() * 8)
		}
		shift := float32(30)
		got := append([]float32(nil), src...)
		sum, alpha := simdExpSubRow(got, shift, 12.5)

		var lanes [8]float32
		n8 := n >> 3
		for j, x := range src {
			e := vecExp(x-shift, 0)
			if math.Float32bits(got[j]) != math.Float32bits(e) {
				t.Fatalf("n=%d: elem %d = %g, the lone evaluation gives %g", n, j, got[j], e)
			}
			if j < n8<<3 {
				lanes[j&7] += e
			}
		}
		want := float32(0)
		if n8 > 0 {
			want = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
		}
		for _, e := range got[n8<<3:] {
			want += e
		}
		if math.Float32bits(sum) != math.Float32bits(want) {
			t.Fatalf("n=%d: sum = %g, the documented order gives %g", n, sum, want)
		}
		if a := vecExp(12.5-shift, 0); math.Float32bits(alpha) != math.Float32bits(a) {
			t.Fatalf("n=%d: alpha = %g, want %g", n, alpha, a)
		}
		// An unchanged maximum rescales by exactly 1; a NaN one poisons.
		if _, alpha := simdExpSubRow(append([]float32(nil), src...), shift, shift); alpha != 1 {
			t.Fatalf("n=%d: alpha = %g with prev == shift, want exactly 1", n, alpha)
		}
		nan := float32(math.NaN())
		if _, alpha := simdExpSubRow(append([]float32(nil), src...), nan, nan); alpha == alpha {
			t.Fatalf("n=%d: alpha = %g with a NaN maximum, want NaN", n, alpha)
		}
	}
}

// transposeScale turns a tile exactly — one rounded multiply per element —
// for every block/fringe split of the key count and the column count, and
// writes nothing outside the tile.
func TestTransposeScale(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := rand.New(rand.NewSource(33))
	const scale = 0.37
	for _, n := range []int{1, 7, 8, 9, 16, 23, attnTileK} {
		for _, cols := range []int{1, 5, 8, 13, 16, 24, attnTransCols} {
			ld := cols + 3
			src := randTensor(rng, n*ld).Data
			dst := make([]float32, attnTransCols*attnTileK)
			for i := range dst {
				dst[i] = -99
			}
			transposeScale(dst, src, ld, n, cols, scale)
			for c := 0; c < attnTransCols; c++ {
				for u := 0; u < attnTileK; u++ {
					want := float32(-99)
					if c < cols && u < n {
						want = scale * src[u*ld+c]
					}
					if got := dst[c*attnTileK+u]; math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("n=%d cols=%d: dst[%d,%d] = %g, want %g", n, cols, c, u, got, want)
					}
				}
			}
		}
	}
}

// rowMax's vector form reproduces the scalar loop bit for bit.
func TestSIMDExactLeavesMatchScalar(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := rand.New(rand.NewSource(35))
	for n := 1; n <= attnTileK; n++ {
		s := randTensor(rng, n).Data
		if got, want := simdRowMax(s), rowMax(s); got != want {
			t.Fatalf("n=%d: rowMax %g, scalar %g", n, got, want)
		}
	}
}

// refSoftmaxTile and refSoftmaxGradTile are the walk's softmax steps as they
// stood before the tile kernels: one call of each simd row leaf per row —
// simdRowMax, simdExpSubRow and the Jacobian row, whose vector form was
// attnDsRow bit for bit. The tile kernels are held to them bit for bit.
func refSoftmaxTile(a *attnArgs, s []float32, m, l *[attnTileQ]float32, out []float32, t attnTile) {
	d, ld := a.d, a.heads*a.d
	for r := t.rlo; r < t.i1; r++ {
		row := s[(r-t.i0)*attnTileK:][:t.j1-t.j0]
		sc := row[:a.visible(t, r)]
		mNew := m[r-t.i0]
		if x := simdRowMax(sc); x > mNew {
			mNew = x
		}
		sum, alpha := simdExpSubRow(sc, mNew, m[r-t.i0])
		l[r-t.i0] = l[r-t.i0]*alpha + sum
		m[r-t.i0] = mNew
		if alpha != 1 {
			orow := out[r*ld : r*ld+d]
			for c := range orow {
				orow[c] *= alpha
			}
		}
		clear(row[len(sc):])
	}
}

func refSoftmaxGradTile(a *attnArgs, p, ds, lse []float32, delta *[attnTileQ]float32, t attnTile) {
	for r := t.rlo; r < t.i1; r++ {
		at, n := (r-t.i0)*attnTileK, a.visible(t, r)
		simdExpSubRow(p[at:at+n], lse[r-t.i0], lse[r-t.i0])
		attnDsRow(ds[at:at+n], p[at:at+n], a.scale, delta[r-t.i0])
		clear(p[at+n : at+t.j1-t.j0])
		clear(ds[at+n : at+t.j1-t.j0])
	}
}

// walkTiles lists every (query tile, key tile) pair the walk visits.
func walkTiles(a *attnArgs) []attnTile {
	var tiles []attnTile
	for i0 := 0; i0 < a.sq; i0 += attnTileQ {
		i1 := min(i0+attnTileQ, a.sq)
		jmax := min(a.sk, a.qOff+i1)
		for j0 := 0; j0 < jmax; j0 += attnTileK {
			tiles = append(tiles, a.tile(i0, i1, j0, jmax))
		}
	}
	return tiles
}

// TestAttnSoftmaxTileEqualsRowLeaves holds both tile kernels, at 8 lanes
// and (where the CPU has them) 16, to the per-row leaves they replaced, bit
// for bit in every value they write and in what they leave alone. The
// tiles are every one the walk visits at self-attention S = 64 (rows that
// see each length 1…64), at ragged query and key tiles with sk ≠ sq and
// qOffset > 0, and at diagonal tiles whose first rows see none of the keys
// (rlo > i0). Running maxima are −Inf (a first tile), equal to or above
// the row's own maximum (the alpha == 1 shortcut) or below it; scores are
// spread wide enough to flush exponentials to zero; NaNs are planted in
// scores, running maxima, lse and D.
func TestAttnSoftmaxTileEqualsRowLeaves(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	widths := []lanes{8}
	if cpuHasAVX512F() {
		widths = append(widths, 16)
	}
	rng := rand.New(rand.NewSource(46))
	nan := float32(math.NaN())
	maybeNaN := func(x float32, odds int) float32 {
		if rng.Intn(odds) == 0 {
			return nan
		}
		return x
	}
	for _, g := range []struct{ sq, sk, qOff, heads, d int }{
		{64, 64, 0, 1, 16},
		{100, 100, 0, 2, 40},
		{45, 70, 13, 2, 24},
		{64, 200, 10, 1, 5},
		{50, 131, 81, 3, 16},
		{70, 29, 0, 1, 8},
	} {
		ld := g.heads * g.d
		a := &attnArgs{heads: g.heads, d: g.d, sq: g.sq, sk: g.sk, qOff: g.qOff,
			scale: float32(1 / math.Sqrt(float64(g.d)))}
		for _, tl := range walkTiles(a) {
			for _, spread := range []float64{1, 8, 60} {
				// The forward tile.
				s := make([]float32, attnTileQ*attnTileK)
				for i := range s {
					s[i] = float32(rng.NormFloat64() * spread)
				}
				var m, l [attnTileQ]float32
				for r := tl.rlo; r < tl.i1; r++ {
					row := s[(r-tl.i0)*attnTileK:][:a.visible(tl, r)]
					row[rng.Intn(len(row))] = maybeNaN(row[0], 16)
					top := rowMax(row)
					switch rng.Intn(5) {
					case 0:
						m[r-tl.i0] = float32(math.Inf(-1))
					case 1:
						m[r-tl.i0] = top
					case 2:
						m[r-tl.i0] = top + 1
					default:
						m[r-tl.i0] = top - float32(rng.Float64()*4*spread)
					}
					m[r-tl.i0] = maybeNaN(m[r-tl.i0], 32)
					l[r-tl.i0] = float32(rng.Float64() * 30)
				}
				out := randTensor(rng, g.sq*ld).Data
				hi := g.heads - 1
				for _, w := range widths {
					a.simd = w
					what := fmt.Sprintf("%d lanes, sq=%d sk=%d qOff=%d tile %+v spread %g", w, g.sq, g.sk, g.qOff, tl, spread)
					gs, ws := append([]float32(nil), s...), append([]float32(nil), s...)
					gm, wm, gl, wl := m, m, l, l
					gout, wout := append([]float32(nil), out...), append([]float32(nil), out...)
					a.softmaxTile(gs, &gm, &gl, gout[hi*g.d:], tl)
					refSoftmaxTile(a, ws, &wm, &wl, wout[hi*g.d:], tl)
					requireBitwise(t, what+": forward scores", gs, ws)
					requireBitwise(t, what+": running max", gm[:], wm[:])
					requireBitwise(t, what+": running sum", gl[:], wl[:])
					requireBitwise(t, what+": out", gout, wout)
				}

				// The backward tile.
				p := make([]float32, attnTileQ*attnTileK)
				ds := make([]float32, attnTileQ*attnTileK)
				for i := range p {
					p[i] = float32(rng.NormFloat64() * spread)
					ds[i] = float32(rng.NormFloat64())
				}
				lse := make([]float32, tl.i1-tl.i0)
				var delta [attnTileQ]float32
				for r := tl.rlo; r < tl.i1; r++ {
					row := p[(r-tl.i0)*attnTileK:][:a.visible(tl, r)]
					row[rng.Intn(len(row))] = maybeNaN(row[0], 16)
					lse[r-tl.i0] = maybeNaN(rowMax(row)+float32(rng.Float64()*3), 32)
					delta[r-tl.i0] = maybeNaN(float32(rng.NormFloat64()), 32)
				}
				for _, w := range widths {
					a.simd = w
					what := fmt.Sprintf("%d lanes, sq=%d sk=%d qOff=%d tile %+v spread %g", w, g.sq, g.sk, g.qOff, tl, spread)
					gp, wp := append([]float32(nil), p...), append([]float32(nil), p...)
					gds, wds := append([]float32(nil), ds...), append([]float32(nil), ds...)
					a.softmaxGradTile(gp, gds, lse, &delta, tl)
					refSoftmaxGradTile(a, wp, wds, lse, &delta, tl)
					requireBitwise(t, what+": p", gp, wp)
					requireBitwise(t, what+": ds", gds, wds)
				}
			}
		}
	}
}
