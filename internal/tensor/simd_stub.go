//go:build !amd64 || noasm

package tensor

// Scalar-only builds (non-amd64, or the noasm tag): no SIMD backend ever
// registers, so mmArgs.simd and attnArgs.simd are never set; these stubs
// keep the static call sites linking and defensively fall back to the
// scalar kernels.

// SIMDCompiled reports whether this build carries the assembly kernels.
const SIMDCompiled = false

func registerSIMDBackends() {}

func simdNNRange(g *mmArgs, lo, hi int) { mmNNRange(g, lo, hi) }
func simdNTRange(g *mmArgs, lo, hi int) { mmNTRange(g, lo, hi) }
func simdTNRange(g *mmArgs, lo, hi int) { mmTNRange(g, lo, hi) }

func simdAttnDotRows(dst, x, rows []float32, ld int, scale float32) {
	attnDotRows(dst, x, rows, ld, scale)
}

func simdAttnAxpyRows(dst, coef []float32, cstride, n int, rows []float32, ld int) {
	attnAxpyRows(dst, coef, cstride, n, rows, ld)
}

func simdExpSubRow(s []float32, shift, prev float32) (sum, alpha float32) {
	return expSubRow(s, shift, prev)
}

func simdRowMax(s []float32) float32 { return rowMax(s) }

func simdAttnDsRow(ds, p []float32, scale, delta float32) { attnDsRow(ds, p, scale, delta) }
