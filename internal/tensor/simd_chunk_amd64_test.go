//go:build !noasm

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func requireBitwise(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d = %b, want %b", what, i, got[i], want[i])
		}
	}
}

// TestSIMDChunkInvariance pins the determinism contract of the three simd
// range kernels: computing the same rows through different worker chunkings
// must produce bitwise identical results. NT rows pair on global parity, so
// a chunk boundary that splits a pair forces the single-row kernel; NN and
// TN rows fall into different tiles of the GEMM kernel (a 6-row tile cut
// into two tails, a 4+3 bottom instead of 6+1) under every split.
func TestSIMDChunkInvariance(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := rand.New(rand.NewSource(21))
	for _, sh := range [][3]int{{8, 6, 19}, {7, 9, 33}, {5, 4, 8}, {9, 13, 64}, {13, 17, 5}, {20, 40, 3}} {
		m, n, k := sh[0], sh[1], sh[2]
		for kind, f := range mmForms {
			a, b := f.operands(rng, m, n, k)
			for _, acc := range []bool{false, true} {
				seed := randTensor(rng, m, n)
				ref := seed.Clone()
				refArgs := mmArgs{kind: mmKind(kind), acc: acc, simd: true, ad: a.Data, bd: b.Data, dd: ref.Data, m: m, n: n, k: k}
				refArgs.run(0, m)

				// Every contiguous two-way split, including odd boundaries.
				for cut := 0; cut <= m; cut++ {
					got := seed.Clone()
					args := refArgs
					args.dd = got.Data
					args.run(0, cut)
					args.run(cut, m)
					requireBitwise(t, f.name, got.Data, ref.Data)
				}
			}
		}
	}
}

// TestGEMMElementIsAPureFunction pins the GEMM kernel's per-element
// contract: a dst element of an NN or TN product is a function of its a
// row (column), its b column and k alone. Rows [r0, r1) of a product equal
// the product of those rows alone, an element equals the 1×1 product of its
// row and column, and a product split along k into a store and an
// accumulate call equals the unsplit one — all bitwise, store and
// accumulate, across every row- and column-tail of the register tile.
func TestGEMMElementIsAPureFunction(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := rand.New(rand.NewSource(22))
	for _, sh := range [][3]int{{13, 17, 9}, {8, 172, 5}, {7, 24, 64}, {20, 15, 3}, {6, 16, 1}} {
		m, n, k := sh[0], sh[1], sh[2]
		for _, tn := range []bool{false, true} {
			a, b := randTensor(rng, m, k).Data, randTensor(rng, k, n).Data
			ars, aks := k, 1
			if tn {
				ars, aks = 1, m
			}
			for _, acc := range []bool{false, true} {
				seed := randTensor(rng, m, n).Data
				full := append([]float32(nil), seed...)
				gemm(a, ars, aks, b, n, full, n, m, n, k, acc)

				for r0 := 0; r0 < m; r0++ {
					for _, r1 := range []int{r0 + 1, (r0 + m + 1) / 2, m} {
						got := append([]float32(nil), seed[r0*n:r1*n]...)
						gemm(a[r0*ars:], ars, aks, b, n, got, n, r1-r0, n, k, acc)
						requireBitwise(t, "row range", got, full[r0*n:r1*n])
					}
				}
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						one := []float32{seed[i*n+j]}
						gemm(a[i*ars:], ars, aks, b[j:], n, one, 1, 1, 1, k, acc)
						requireBitwise(t, "single element", one, full[i*n+j:i*n+j+1])
					}
				}
				for k1 := 0; k1 <= k; k1++ {
					got := append([]float32(nil), seed...)
					gemm(a, ars, aks, b, n, got, n, m, n, k1, acc)
					gemm(a[k1*aks:], ars, aks, b[k1*n:], n, got, n, m, n, k-k1, true)
					requireBitwise(t, "k split", got, full)
				}
			}
		}
	}
}
