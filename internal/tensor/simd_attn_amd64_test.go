//go:build !noasm

package tensor

import (
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

// The two exact leaves reproduce their scalar loops bit for bit.
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
		p := randTensor(rng, n).Data
		want := append([]float32(nil), s...)
		attnDsRow(want, p, 0.25, 0.7)
		simdAttnDsRow(s, p, 0.25, 0.7)
		for j := range s {
			if math.Float32bits(s[j]) != math.Float32bits(want[j]) {
				t.Fatalf("n=%d: ds[%d] = %g, scalar %g", n, j, s[j], want[j])
			}
		}
	}
}
