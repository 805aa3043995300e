//go:build !noasm

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// recipDivLanes lists the kernels under test: RECIPDIV on four lanes and,
// where the CPU has AVX-512, RECIPDIV512 on eight.
func recipDivLanes(t *testing.T) map[string]func(dst, a []float64, c float64) {
	t.Helper()
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	run := func(width int, kernel func(dst, a *float64, nv int, k *[2]float64)) func(dst, a []float64, c float64) {
		return func(dst, a []float64, c float64) {
			if len(a)%width != 0 {
				panic(fmt.Sprintf("recipDiv: %d lanes, not whole vectors of %d", len(a), width))
			}
			k := [2]float64{c, 1 / c}
			kernel(&dst[0], &a[0], len(a)/width, &k)
		}
	}
	out := map[string]func(dst, a []float64, c float64){"avx2": run(4, recipDivAVX2)}
	if cpuHasAVX512F() {
		out["avx512"] = run(8, recipDivAVX512)
	}
	return out
}

// recipDivExactBelow is the magnitude from which RECIPDIV is the divide bit
// for bit: below it c·q's low bits fall under the subnormal range, the
// residual rounds and Markstein's theorem no longer applies. A moment AdamW
// divides is 0 or far above it.
var recipDivExactBelow = math.Ldexp(1, -969)

// recipDivWrong returns the first i at which got[i] is not a[i]/c, or -1:
// got must be the divide's bits — NaN payloads and zero signs included —
// for every a of magnitude at least recipDivExactBelow, ±0, ±Inf and NaN,
// and within one ulp of them below it.
func recipDivWrong(c float64, a, got []float64) int {
	for i, x := range a {
		gb, wb := math.Float64bits(got[i]), math.Float64bits(x/c)
		if gb == wb {
			continue
		}
		tiny := x != 0 && math.Abs(x) < recipDivExactBelow
		if d := int64(gb) - int64(wb); !tiny || gb>>63 != wb>>63 || d < -1 || d > 1 {
			return i
		}
	}
	return -1
}

// checkRecipDiv runs div over a by c and fails the test where it is wrong
// (recipDivWrong).
func checkRecipDiv(t *testing.T, name string, div func(dst, a []float64, c float64), got, a []float64, c float64, step int) {
	t.Helper()
	div(got, a, c)
	if i := recipDivWrong(c, a, got); i >= 0 {
		t.Fatalf("%s t=%d: %x / C=%x (%g / %g) = %x, divide %x",
			name, step, math.Float64bits(a[i]), math.Float64bits(c), a[i], c, math.Float64bits(got[i]), math.Float64bits(a[i]/c))
	}
}

// anyBinade returns a value of binade e — an exponent in [-1074, 1023],
// where the 52 lowest are the subnormal range — with a random mantissa and
// sign.
func anyBinade(rng *rand.Rand, e int) float64 {
	var x float64
	if e < -1022 {
		// Subnormal: the top set bit of the 52-bit field sits at e + 1074.
		top := uint64(1) << uint(e+1074)
		x = math.Float64frombits(top | uint64(rng.Int63())&(top-1))
	} else {
		x = math.Ldexp(1+rng.Float64(), e)
	}
	if rng.Intn(2) == 0 {
		x = -x
	}
	return x
}

// recipDivSpecials are the lanes every table row carries besides drawn
// magnitudes: signed zeros, infinities, quiet and signalling NaNs with
// payloads, the extremes of float64 and float32, and 1.
var recipDivSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff0000000000001),
	math.MaxFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat32, math.SmallestNonzeroFloat32, 1,
	-math.Ldexp(1, -969), math.Ldexp(1.5, -1022), 0x1p-149 * 0.05, 3.4e38 * 0.1,
}

// TestRecipDivMatchesDivide is the table test of the bias-correction
// division the AdamW kernels run: for C = 1 − βᵗ, t = 1 … 100 000, with the
// default betas 0.9 and 0.95 and two others, both past the step where C
// rounds to 1, every C divides the specials and eight values drawn from
// binades the steps cycle through; a C every few hundred steps, and each
// beta's last C below 1 and first C of 1, divide values from every float64
// binade.
func TestRecipDivMatchesDivide(t *testing.T) {
	kernels := recipDivLanes(t)
	rng := rand.New(rand.NewSource(49))
	const binades = 1023 + 1074 + 1 // exponents -1074 … 1023
	cycled := make([]float64, 0, len(recipDivSpecials)+8)
	sweep := make([]float64, 0, 2*binades+len(recipDivSpecials)+8)
	got := make([]float64, cap(sweep))
	for _, beta := range []float64{0.9, 0.95, 0.999, 0.5} {
		var one int // the first step whose C is 1
		for step := 1; step <= 100000; step++ {
			c := 1 - math.Pow(beta, float64(step))
			full := step%397 == 1 || step == 100000
			if c == 1 && one == 0 {
				one, full = step, true
			}
			cycled = append(cycled[:0], recipDivSpecials...)
			for j := 0; j < 8; j++ {
				cycled = append(cycled, anyBinade(rng, (step*8+j)*613%binades-1074))
			}
			for name, div := range kernels {
				checkRecipDiv(t, name, div, got, cycled, c, step)
			}
			if full || (one == 0 && 1-math.Pow(beta, float64(step+1)) == 1) {
				sweep = append(sweep[:0], recipDivSpecials...)
				for e := -1074; e <= 1023; e++ {
					sweep = append(sweep, anyBinade(rng, e), anyBinade(rng, e))
				}
				for len(sweep)%8 != 0 {
					sweep = append(sweep, anyBinade(rng, 1023))
				}
				for name, div := range kernels {
					checkRecipDiv(t, name+" (every binade)", div, got, sweep, c, step)
				}
			}
		}
		if one == 0 {
			t.Fatalf("β=%g: C never rounds to 1 by step 100000", beta)
		}
	}
}
