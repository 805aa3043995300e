//go:build !noasm

package tensor

import (
	"math/rand"
	"testing"
)

// TestSIMDChunkInvariance pins the determinism contract of the three simd
// range kernels: computing the same rows through different worker chunkings
// must produce bitwise identical results. Under every split the rows fall
// into different tiles of the GEMM kernel (a 6-row tile cut into two tails, a
// 4+3 bottom instead of 6+1; at 16 lanes a 12-row panel of the wide kernel
// cut into two runs of the narrow one); the last three shapes also cross NT's
// b panel and k block edges.
func TestSIMDChunkInvariance(t *testing.T) {
	for _, name := range simdBackends(t) {
		testSIMDChunkInvariance(t, simdLanes[name])
	}
}

func testSIMDChunkInvariance(t *testing.T, w lanes) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range [][3]int{{8, 6, 19}, {7, 9, 33}, {5, 4, 8}, {9, 13, 64}, {13, 17, 5}, {20, 40, 3}, {9, 65, 70}, {14, 172, 129}, {27, 33, 65}} {
		m, n, k := sh[0], sh[1], sh[2]
		for kind, f := range mmForms {
			a, b := f.operands(rng, m, n, k)
			for _, acc := range []bool{false, true} {
				seed := randTensor(rng, m, n)
				ref := seed.Clone()
				refArgs := mmArgs{kind: mmKind(kind), acc: acc, simd: w, ad: a.Data, bd: b.Data, dd: ref.Data, m: m, n: n, k: k}
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
// contract: a dst element of an NN, TN or NT product is a function of its a
// row (column), its b column (row) and k alone. Rows [r0, r1) of a product
// equal the product of those rows alone, an element equals the 1×1 product of
// its row and column, and a product split along k into a store and an
// accumulate call equals the unsplit one — all bitwise, store and
// accumulate, across every row- and column-tail of the register tile and,
// for NT, of the transposed b panel and the k block; at 16 lanes the 26- and
// 37-row shapes also move rows between the wide kernel's panels and the
// narrow kernel's tail.
func TestGEMMElementIsAPureFunction(t *testing.T) {
	for _, name := range simdBackends(t) {
		testGEMMElementIsAPureFunction(t, simdLanes[name])
	}
}

func testGEMMElementIsAPureFunction(t *testing.T, w lanes) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range [][3]int{{13, 17, 9}, {8, 172, 5}, {7, 24, 64}, {20, 15, 3}, {6, 16, 1}, {26, 33, 7}} {
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
				gemm(w, a, ars, aks, b, n, full, n, m, n, k, acc)

				for r0 := 0; r0 < m; r0++ {
					for _, r1 := range []int{r0 + 1, (r0 + m + 1) / 2, m} {
						got := append([]float32(nil), seed[r0*n:r1*n]...)
						gemm(w, a[r0*ars:], ars, aks, b, n, got, n, r1-r0, n, k, acc)
						requireBitwise(t, "row range", got, full[r0*n:r1*n])
					}
				}
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						one := []float32{seed[i*n+j]}
						gemm(w, a[i*ars:], ars, aks, b[j:], n, one, 1, 1, 1, k, acc)
						requireBitwise(t, "single element", one, full[i*n+j:i*n+j+1])
					}
				}
				for k1 := 0; k1 <= k; k1++ {
					got := append([]float32(nil), seed...)
					gemm(w, a, ars, aks, b, n, got, n, m, n, k1, acc)
					gemm(w, a[k1*aks:], ars, aks, b[k1*n:], n, got, n, m, n, k-k1, true)
					requireBitwise(t, "k split", got, full)
				}
			}
		}
	}

	// NT has no strides to hand it a sub-matrix in place: columns [k0, k1) of
	// a row-major operand are copied out.
	nt := func(dst, a, b []float32, m, n, k int, acc bool) {
		g := mmArgs{kind: mmNT, acc: acc, simd: w, ad: a, bd: b, dd: dst, m: m, n: n, k: k}
		g.run(0, m)
	}
	cols := func(x []float32, rows, k, k0, k1 int) []float32 {
		out := make([]float32, 0, rows*(k1-k0))
		for r := 0; r < rows; r++ {
			out = append(out, x[r*k+k0:r*k+k1]...)
		}
		return out
	}
	for _, sh := range [][3]int{{13, 17, 9}, {8, 172, 5}, {7, 24, 64}, {6, 16, 1}, {9, 65, 70}, {7, 130, 129}, {37, 65, 70}} {
		m, n, k := sh[0], sh[1], sh[2]
		a, b := randTensor(rng, m, k).Data, randTensor(rng, n, k).Data
		for _, acc := range []bool{false, true} {
			seed := randTensor(rng, m, n).Data
			full := append([]float32(nil), seed...)
			nt(full, a, b, m, n, k, acc)

			for r0 := 0; r0 < m; r0++ {
				for _, r1 := range []int{r0 + 1, (r0 + m + 1) / 2, m} {
					got := append([]float32(nil), seed[r0*n:r1*n]...)
					nt(got, a[r0*k:r1*k], b, r1-r0, n, k, acc)
					requireBitwise(t, "NT row range", got, full[r0*n:r1*n])
				}
			}
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					one := []float32{seed[i*n+j]}
					nt(one, a[i*k:(i+1)*k], b[j*k:(j+1)*k], 1, 1, k, acc)
					requireBitwise(t, "NT single element", one, full[i*n+j:i*n+j+1])
				}
			}
			for k1 := 0; k1 <= k; k1++ {
				got := append([]float32(nil), seed...)
				nt(got, cols(a, m, k, 0, k1), cols(b, n, k, 0, k1), m, n, k1, acc)
				nt(got, cols(a, m, k, k1, k), cols(b, n, k, k1, k), m, n, k-k1, true)
				requireBitwise(t, "NT k split", got, full)
			}
		}
	}
}

// TestNTEqualsNNOfTranspose pins what putting NT on the GEMM kernel buys:
// a·bᵀ is the NN product of a with b transposed, bit for bit — store and
// accumulate, through the dispatcher (the largest shapes split across the
// pool), over ragged shapes that cross the b panel and k block edges — and an
// empty product (k = 0, which no tensor shape can carry) stores zeros or
// leaves dst alone.
func TestNTEqualsNNOfTranspose(t *testing.T) {
	for _, name := range simdBackends(t) {
		testNTEqualsNNOfTranspose(t, name)
	}
}

func testNTEqualsNNOfTranspose(t *testing.T, backend string) {
	rng := rand.New(rand.NewSource(23))
	withBackend(t, backend, func() {
		for _, m := range []int{1, 5, 6, 7, 13, 512} {
			for _, n := range []int{1, 15, 64, 65, 172} {
				for _, k := range []int{1, 7, 64, 129, 172} {
					a, b := randTensor(rng, m, k), randTensor(rng, n, k)
					bt := New(k, n)
					Transpose(bt, b)
					seed := randTensor(rng, m, n)
					got, want := seed.Clone(), seed.Clone()
					MatMulTB(got, a, b)
					MatMul(want, a, bt)
					requireBitwise(t, "NT store", got.Data, want.Data)
					got, want = seed.Clone(), seed.Clone()
					MatMulTBAcc(got, a, b)
					MatMulAcc(want, a, bt)
					requireBitwise(t, "NT accumulate", got.Data, want.Data)
				}
			}
		}
	})
	for _, acc := range []bool{false, true} {
		const m, n = 7, 65
		seed := randTensor(rng, m, n)
		got, want := seed.Clone(), seed.Clone()
		if !acc {
			want = New(m, n)
		}
		g := mmArgs{kind: mmNT, acc: acc, simd: simdLanes[backend], dd: got.Data, m: m, n: n}
		g.run(0, m)
		requireBitwise(t, "NT k = 0", got.Data, want.Data)
	}
}
