package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"weipipe/internal/optim"
	"weipipe/internal/tensor"
)

// A step loads its gradient averaged — and, when the rule clips, clipped —
// in the AdamW kernel (stepFactor) instead of writing it: the weights and
// moments must be the bits of averaging with tensor.ScaleF32, clipping with
// a second ScaleF32 and stepping on the result, at every clip setting,
// with NaN and ±Inf gradients (whose Σg² makes the clip scale NaN) too.
func TestStepFactorMatchesScaleThenStep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const size = 1027
	adam := optim.DefaultAdamW(1e-3)
	for _, clip := range []float64{0, 1e-3, 1e6} {
		for _, n := range []int{1, 3, 8} {
			for _, bad := range []float32{0, float32(math.NaN()), float32(math.Inf(-1))} {
				w := make([]float32, size)
				for i := range w {
					w[i] = float32(rng.NormFloat64())
				}
				ref := optim.NewAdamW(size, adam)
				wRef := append([]float32(nil), w...)
				o := owned{pieces: []piece{{w: w, opt: optim.NewAdamW(size, adam)}}, stepRule: newStepRule(Options{ClipNorm: clip}, 0)}
				for step := 0; step < 3; step++ {
					g := make([]float32, size)
					for i := range g {
						g[i] = float32(rng.NormFloat64() * 40)
					}
					if bad != 0 && step == 1 {
						g[size/2] = bad
					}
					gRef := append([]float32(nil), g...)
					tensor.ScaleF32(gRef, gRef, gradFactor(n))
					var sumSq float64
					for _, v := range gRef {
						sumSq += float64(v) * float64(v)
					}
					if norm := math.Sqrt(sumSq); clip > 0 && !(norm <= clip) {
						tensor.ScaleF32(gRef, gRef, float32(clip/norm))
					}
					ref.Step(wRef, gRef)
					if err := o.step(n, nil, g); err != nil {
						t.Fatal(err)
					}
				}
				requireBitsEqual(t, "weights", o.pieces[0].w, wRef)
				mRef, vRef := make([]float32, size), make([]float32, size)
				m, v := make([]float32, size), make([]float32, size)
				ref.CopyStateInto(mRef, vRef)
				o.pieces[0].opt.CopyStateInto(m, v)
				requireBitsEqual(t, "m", m, mRef)
				requireBitsEqual(t, "v", v, vRef)
			}
		}
	}
}

func requireBitsEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, ScaleF32 then Step gives %v", what, i, got[i], want[i])
		}
	}
}
