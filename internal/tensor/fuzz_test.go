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
