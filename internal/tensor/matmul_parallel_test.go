package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Matmul results must be bitwise identical regardless of how many workers the
// dispatcher uses: chunking splits destination rows only, so each element's
// accumulation order is fixed by the shapes. The host may have a single CPU,
// so both sides of the comparison force GOMAXPROCS explicitly.
func TestMatMulBitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Big enough to split on every backend (the 16-lane matmul class has the
	// highest threshold), with a row count no worker count below divides into
	// whole 6- or 12-row GEMM panels.
	const m, k, n = 400, 256, 172
	a := New(m, k)
	bNN := New(k, n)
	bNT := New(n, k)
	aTN := New(k, m)
	for _, x := range []*Tensor{a, bNN, bNT, aTN} {
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
	}
	if m*n*k < splitThreshold(16, false) {
		t.Fatalf("test shape below the 16-lane split threshold; enlarge it")
	}

	run := func(workers int) (nn, nt, tn *Tensor) {
		prev := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
		nn, nt, tn = New(m, n), New(m, n), New(m, n)
		MatMul(nn, a, bNN)
		MatMulTB(nt, a, bNT)
		MatMulTA(tn, aTN, bNN)
		return
	}

	nn1, nt1, tn1 := run(1)
	for _, workers := range []int{2, 4, 7} {
		nnN, ntN, tnN := run(workers)
		for name, pair := range map[string][2]*Tensor{
			"NN": {nn1, nnN}, "NT": {nt1, ntN}, "TN": {tn1, tnN},
		} {
			for i := range pair[0].Data {
				b0 := math.Float32bits(pair[0].Data[i])
				bN := math.Float32bits(pair[1].Data[i])
				if b0 != bN {
					t.Fatalf("%s elem %d differs between 1 and %d workers: %08x vs %08x",
						name, i, workers, b0, bN)
				}
			}
		}
	}
}
