package tensor

import (
	"math"
	"testing"
)

// FuzzBF16RoundTrip checks the bfloat16 codec — the one reduced-precision
// wire format — on arbitrary floats: the round trip never panics, keeps NaN a
// NaN and ±Inf itself, preserves sign, and is idempotent (rounding a rounded
// value changes nothing, which is what lets an integrity seal survive every
// re-encode).
func FuzzBF16RoundTrip(f *testing.F) {
	for _, seed := range []float32{0, 1, -1e20, 7.5, 1e-30, 3.4e38, float32(math.Inf(-1))} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v float32) {
		back := BF16ToF32(F32ToBF16(v))
		switch {
		case math.IsNaN(float64(v)):
			if !math.IsNaN(float64(back)) {
				t.Fatal("NaN lost")
			}
			return
		case math.IsInf(float64(v), 0) && back != v:
			t.Fatalf("%v became %v", v, back)
		}
		if v > 0 && back < 0 || v < 0 && back > 0 {
			t.Fatalf("sign flip: %v -> %v", v, back)
		}
		if again := BF16ToF32(F32ToBF16(back)); again != back && !math.IsNaN(float64(back)) {
			t.Fatalf("not idempotent: %v -> %v -> %v", v, back, again)
		}
	})
}

// FuzzAdamW holds every registered backend's AdamW to the scalar loop's
// bits — w, m and v, NaN payloads and zero signs included — on 17 lanes (two
// avx512 vectors, four avx2 ones and a scalar tail) built from one fuzzed
// (w, g, m, v): lane i takes the four values rotated by i, so each value
// plays each role, in vector lanes and in the tail. The step picks the bias
// corrections C = 1 − βᵗ, from t = 1 up past where both round to 1. The
// gradient factor gs is fuzzed too: the oracle is scaleScalar then the
// scalar loop at G = 1, and no backend writes g.
func FuzzAdamW(f *testing.F) {
	f.Add(float32(0.5), float32(1e-3), float32(0), float32(0), uint32(0), float32(1))
	f.Add(float32(-1), float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1)), uint32(1), float32(1))
	f.Add(float32(1e-38), float32(-math.MaxFloat32), float32(1e-45), float32(-2), uint32(800), float32(1))
	f.Add(float32(0.5), float32(math.NaN()), float32(1e-40), float32(math.Inf(-1)), uint32(2), float32(0.125))
	f.Add(float32(2), float32(math.Inf(1)), float32(-3), float32(1e-44), uint32(9), float32(1e-39))
	f.Add(float32(-0.25), float32(3e38), float32(1), float32(2), uint32(77), float32(math.Inf(-1)))
	f.Add(float32(1), float32(1e-45), float32(0), float32(0), uint32(5), float32(math.NaN()))
	f.Fuzz(func(t *testing.T, w, g, m, v float32, step uint32, gs float32) {
		const n = 17
		vals := [4]float32{w, g, m, v}
		var lanes [4][n]float32 // w, g, m, v
		for i := 0; i < n; i++ {
			for r := range lanes {
				lanes[r][i] = vals[(r+i)%4]
			}
		}
		s := AdamWStep{B1: 0.9, B2: 0.95, LR: 3e-4, Eps: 1e-8, G: 1}
		s.C1 = 1 - math.Pow(s.B1, float64(step%4096+1))
		s.C2 = 1 - math.Pow(s.B2, float64(step%4096+1))
		want := lanes
		scaleScalar(want[1][:], want[1][:], gs)
		adamWScalar(want[0][:], want[1][:], want[2][:], want[3][:], s)
		want[1] = lanes[1]
		s.G = gs
		for _, name := range Backends() {
			b, _ := BackendByName(name)
			got := lanes
			b.AdamW(got[0][:], got[1][:], got[2][:], got[3][:], s)
			for r, what := range []string{"w", "g", "m", "v"} {
				for i := range got[r] {
					if math.Float32bits(got[r][i]) != math.Float32bits(want[r][i]) {
						t.Fatalf("%s t=%d lane %d: %s = %08x, scalar %08x",
							name, step%4096+1, i, what, math.Float32bits(got[r][i]), math.Float32bits(want[r][i]))
					}
				}
			}
		}
	})
}
