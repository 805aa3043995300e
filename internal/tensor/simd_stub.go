//go:build !amd64 || noasm

package tensor

// Scalar-only builds (non-amd64, or the noasm tag): no SIMD backend ever
// registers, so mmArgs.simd and attnArgs.simd stay 0 lanes; these stubs
// keep the static call sites linking. Where the scalar kernel is a function
// of the same signature they fall back to it; attention's tile products,
// whose scalar form is the body of the dispatching method, cannot be
// reached and say so.

// SIMDCompiled reports whether this build carries the assembly kernels.
const SIMDCompiled = false

func registerSIMDBackends() {}

// FMASpin is the kernel bench's FMA-peak probe; a scalar-only build has no
// vector width to probe and reports that nothing ran.
func FMASpin(width, rounds int) (flop float64) { return 0 }

func simdNNRange(g *mmArgs, lo, hi int) { mmNNRange(g, lo, hi) }
func simdNTRange(g *mmArgs, lo, hi int) { mmNTRange(g, lo, hi) }
func simdTNRange(g *mmArgs, lo, hi int) { mmTNRange(g, lo, hi) }

func simdAttnScoreTile(a *attnArgs, dst, scratch, x, rows []float32, t attnTile, scale float32) {
	panic("tensor: simd attention leaf in a scalar-only build")
}

func simdAttnAddTile(a *attnArgs, dst, coef, rows []float32, t attnTile) {
	panic("tensor: simd attention leaf in a scalar-only build")
}

func simdAttnAddTileT(a *attnArgs, dst, coef, rows []float32, t attnTile) {
	panic("tensor: simd attention leaf in a scalar-only build")
}

func simdExpSubRow(s []float32, shift, prev float32) (sum, alpha float32) {
	return expSubRow(s, shift, prev)
}

func simdRowMax(s []float32) float32 { return rowMax(s) }

func simdAttnDsRow(ds, p []float32, scale, delta float32) { attnDsRow(ds, p, scale, delta) }
