package tensor

import "testing"

// TestMatMulBackendZeroAlloc pins the zero-allocation contract of the
// matmul dispatch on every registered backend: the mmArgs value must not
// escape (static kernel linking, no closures) regardless of which range
// kernels run.
func TestMatMulBackendZeroAlloc(t *testing.T) {
	rng := NewRNG(3)
	a := New(256, 256)
	b := New(256, 256)
	dst := New(256, 256)
	FillUniform(a, rng, -1, 1)
	FillUniform(b, rng, -1, 1)
	for _, bk := range Backends() {
		withBackend(t, bk, func() {
			for name, fn := range map[string]func(){
				"NN":    func() { MatMul(dst, a, b) },
				"NT":    func() { MatMulTB(dst, a, b) },
				"TN":    func() { MatMulTA(dst, a, b) },
				"NNacc": func() { MatMulAcc(dst, a, b) },
			} {
				if n := testing.AllocsPerRun(5, fn); n != 0 {
					t.Errorf("backend %s %s: %v allocs per run, want 0", bk, name, n)
				}
			}
		})
	}
}
