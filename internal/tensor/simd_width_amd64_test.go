//go:build !noasm

package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The width contract: the 16-lane GEMM kernel computes the bits of the
// 8-lane one, so the avx512 backend is the avx2 backend bit for bit and
// nothing downstream — tolerances, goldens, checkpoints, cross-strategy
// oracles — can tell which a process ran on.

func requireAVX512(t *testing.T) {
	t.Helper()
	if !cpuHasAVX2FMA() || !cpuHasAVX512F() {
		t.Skip("no AVX-512F (with OS-enabled ZMM state) on this machine")
	}
}

// TestGEMMWideEqualsNarrow runs gemm at 16 and at 8 lanes over every row
// count from 1 to 25 — each height of the wide kernel's remainder panels
// after zero, one and two whole panels of 12 — and at 32 and 512, column
// counts on every side of the 16- and 32-column tile edges, NN and TN
// strides, store and accumulate, into a c whose rows are wider than n and
// that has rows past m: the products agree bitwise and neither touches the
// columns beyond n or the rows beyond m.
func TestGEMMWideEqualsNarrow(t *testing.T) {
	requireAVX512(t)
	rng := rand.New(rand.NewSource(24))
	const pad, guard = 5, 2
	ms := []int{32, 512}
	for m := 1; m <= 25; m++ {
		ms = append(ms, m)
	}
	for _, m := range ms {
		for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 64, 65, 172} {
			for _, k := range []int{0, 1, 16, 64, 65, 172} {
				a, b := randTensor(rng, max(m*k, 1)).Data, randTensor(rng, max(k*n, 1)).Data
				seed := randTensor(rng, (m+guard)*(n+pad)).Data
				for _, tn := range []bool{false, true} {
					ars, aks := k, 1
					if tn {
						ars, aks = 1, m
					}
					for _, acc := range []bool{false, true} {
						wide := append([]float32(nil), seed...)
						narrow := append([]float32(nil), seed...)
						gemm(16, a, ars, aks, b, n, wide, n+pad, m, n, k, acc)
						gemm(8, a, ars, aks, b, n, narrow, n+pad, m, n, k, acc)
						what := fmt.Sprintf("m=%d n=%d k=%d tn=%v acc=%v", m, n, k, tn, acc)
						requireBitwise(t, what+": 16 lanes vs 8", wide, narrow)
						for i := 0; i < m; i++ {
							row := i * (n + pad)
							requireBitwise(t, what+": columns beyond n", wide[row+n:row+n+pad], seed[row+n:row+n+pad])
						}
						requireBitwise(t, what+": rows beyond m", wide[m*(n+pad):], seed[m*(n+pad):])
					}
				}
			}
		}
	}
}

// TestAVX512BackendEqualsAVX2 calls every Backend method on both backends
// with the same operands: all outputs agree bitwise — the three matmul forms
// over the equivalence suite's shapes and the benchmark's, attention forward
// and backward at the long-* shape and at ragged sq ≠ sk with and without a
// query offset, and the methods avx512 inherits unchanged.
func TestAVX512BackendEqualsAVX2(t *testing.T) {
	requireAVX512(t)
	narrow, _ := BackendByName("avx2")
	wide, ok := BackendByName("avx512")
	if !ok {
		t.Fatal("AVX-512F present but no avx512 backend registered")
	}
	if wide.Exact() {
		t.Fatal("avx512 must report tolerance mode, like avx2")
	}
	rng := rand.New(rand.NewSource(25))
	// both runs fn under each backend on clones of the seeded outputs.
	both := func(what string, outs []*Tensor, fn func(bk Backend, outs []*Tensor)) {
		t.Helper()
		clone := func() []*Tensor {
			c := make([]*Tensor, len(outs))
			for i, o := range outs {
				c[i] = o.Clone()
			}
			return c
		}
		got, want := clone(), clone()
		fn(wide, got)
		fn(narrow, want)
		for i := range outs {
			requireBitwise(t, what, got[i].Data, want[i].Data)
		}
	}

	shapes := append([][3]int{{512, 172, 64}, {512, 64, 172}, {64, 172, 512}, {36, 33, 65}}, equivShapes...)
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, acc := range []bool{false, true} {
			dst := []*Tensor{randTensor(rng, m, n)}
			a, b, bt, at := randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, n, k), randTensor(rng, k, m)
			both("MatMulNN", dst, func(bk Backend, o []*Tensor) { bk.MatMulNN(o[0], a, b, acc) })
			both("MatMulNT", dst, func(bk Backend, o []*Tensor) { bk.MatMulNT(o[0], a, bt, acc) })
			both("MatMulTN", dst, func(bk Backend, o []*Tensor) { bk.MatMulTN(o[0], at, b, acc) })
		}
	}

	for _, s := range []attnShape{
		{g: 1, heads: 4, d: 16, sq: 512, sk: 512},
		{g: 2, heads: 2, d: 40, sq: 37, sk: 37},
		{g: 1, heads: 3, d: 16, sq: 50, sk: 131, qOff: 81},
		{g: 2, heads: 2, d: 24, sq: 45, sk: 70, qOff: 13},
		{g: 1, heads: 1, d: 8, sq: 70, sk: 29},
	} {
		q, k, v, dout := attnInputs(s, 7, 1.5)
		width := s.heads * s.d
		outs := []*Tensor{New(s.g*s.sq, width), New(s.g * s.heads * s.sq), // out, lse
			New(s.g*s.sq, width), New(s.g*s.sk, width), New(s.g*s.sk, width)} // dq, dk, dv
		both("attention "+s.String(), outs, func(bk Backend, o []*Tensor) {
			bk.CausalAttention(o[0], o[1], q, k, v, s.heads, s.sq, s.sk, s.qOff)
			bk.CausalAttentionBackward(o[2], o[3], o[4], q, k, v, o[0], dout, o[1], s.heads, s.sq, s.sk, s.qOff)
		})
	}

	for _, sz := range []int{1, 9, 100, 1023} {
		x, y, g := randTensor(rng, sz), randTensor(rng, sz), randTensor(rng, sz)
		dst := []*Tensor{randTensor(rng, sz)}
		both("Add", dst, func(bk Backend, o []*Tensor) { bk.Add(o[0], x, y) })
		both("Mul", dst, func(bk Backend, o []*Tensor) { bk.Mul(o[0], x, y) })
		both("Axpy", dst, func(bk Backend, o []*Tensor) { bk.Axpy(o[0], 0.3, x) })
		both("Scale", dst, func(bk Backend, o []*Tensor) { bk.Scale(o[0].Data, x.Data, 0.3) })
		both("AddInto", dst, func(bk Backend, o []*Tensor) { bk.AddInto(o[0].Data, x.Data) })
		both("SiLU", dst, func(bk Backend, o []*Tensor) { bk.SiLU(o[0], x) })
		both("SiLUBackward", dst, func(bk Backend, o []*Tensor) { bk.SiLUBackward(o[0], x, g) })
		both("Dot", dst, func(bk Backend, o []*Tensor) { o[0].Data[0] = float32(bk.Dot(x, y)) })
		both("DotF32", dst, func(bk Backend, o []*Tensor) { o[0].Data[0] = bk.DotF32(x, y) })
	}
	// The row kernels, at a ragged shape and at the long-* shapes: the head's
	// softmax is [G·S, V] = 512 × 256, norm and RoPE run on [512, 64].
	for _, sh := range [][3]int{{7, 33, 3}, {512, 256, 4}, {512, 64, 4}} {
		rows, h, heads := sh[0], sh[1], sh[2]
		x, dy, gain, inv := randTensor(rng, rows, h), randTensor(rng, rows, h), randTensor(rng, h), randTensor(rng, rows)
		cos, sin := randTensor(rng, rows*h/heads/2), randTensor(rng, rows*h/heads/2)
		both("SoftmaxRows", []*Tensor{New(rows, h)}, func(bk Backend, o []*Tensor) { bk.SoftmaxRows(o[0], x) })
		both("RMSNormRows", []*Tensor{New(rows, h), New(rows)}, func(bk Backend, o []*Tensor) { bk.RMSNormRows(o[0], o[1], x, gain, 1e-6) })
		both("RMSNormBackward", []*Tensor{New(rows, h)}, func(bk Backend, o []*Tensor) { bk.RMSNormBackward(o[0], x, dy, gain, inv) })
		both("RMSNormGainTerms", []*Tensor{New(rows, h)}, func(bk Backend, o []*Tensor) { bk.RMSNormGainTerms(o[0], x, dy, inv) })
		both("AddRowsInto", []*Tensor{randTensor(rng, h)}, func(bk Backend, o []*Tensor) { bk.AddRowsInto(o[0], x) })
		if h%(2*heads) == 0 {
			both("Rope", []*Tensor{x}, func(bk Backend, o []*Tensor) { bk.Rope(o[0], cos.Data, sin.Data, rows, heads, -1) })
		}
	}
}

// xnModP returns x^n modulo the IEEE CRC polynomial, bit-reflected and
// shifted left by one: the form crc32AVX512's fold constants take.
func xnModP(n int) uint64 {
	const poly = 0xedb88320 // P bit-reflected, x^32 implied
	p := uint32(1) << 31    // x^0
	for range n {
		if p&1 != 0 {
			p = p>>1 ^ poly
		} else {
			p >>= 1
		}
	}
	return uint64(p) << 1
}

// The kernel's fold constants are the powers of x they are documented as,
// and hash/crc32's r2r1 and r4r3 come out of the same rule.
func TestCRCFoldConstants(t *testing.T) {
	for i, n := range []int{2080, 2016, 544, 480, 160, 96} {
		if got, want := crcFold[i], xnModP(n); got != want {
			t.Errorf("crcFold[%d] = %#x, x^%d is %#x", i, got, n, want)
		}
	}
	if got, want := crcFold[8], xnModP(64); got != want {
		t.Errorf("crcFold[8] = %#x, x^64 is %#x", got, want)
	}
}

// The kernel on its own, on every length it accepts up to 8 KB and a few
// far past it, against hash/crc32's CLMUL loop through Update.
func TestCRC32AVX512Lengths(t *testing.T) {
	if !crcWide {
		t.Skip("no VPCLMULQDQ with AVX-512F on this machine")
	}
	buf := randomBytes(8, 1<<20+256)
	lengths := []int{1 << 20, 1<<20 + 240, 3 << 18}
	for n := 256; n <= 8192; n += 16 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, crc := range []uint32{0, 0x9e3779b9} {
			p := buf[3 : 3+n]
			if got, want := ^crc32AVX512(^crc, p), stdCRC(crc, p); got != want {
				t.Fatalf("length %d, crc %#x: %#x, hash/crc32 %#x", n, crc, got, want)
			}
		}
	}
}
