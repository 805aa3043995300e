package tensor

import (
	"fmt"
	"testing"
)

// benchShapes are the matmul shapes tracked by the kernel benchmarks: a
// square projection-sized product, a short-k product with a large output, a
// long-k product with a small one, and the three FFN shapes of the
// benchmark's long-* workloads (S 512, H 64, F 172) — x·W₁ as [S,H]×[H,F]
// (read as NT, the B pass's dy·W₂ᵀ), read as TN dW₁ = xᵀ·dy as [H,S]×[S,F],
// and read as NT the B pass's du·W₁ᵀ as [S,F]×[F,H].
var benchShapes = []struct{ m, k, n int }{
	{256, 256, 256},
	{1024, 64, 1024},
	{64, 512, 64},
	{512, 64, 172},
	{64, 512, 172},
	{512, 172, 64},
}

// benchMatMulBackends runs one sub-benchmark per shape per registered
// backend (scalar always; avx2 on capable amd64 machines), so a single
// `go test -bench` run produces the backend A/B comparison.
func benchMatMulBackends(b *testing.B, mk func(sh struct{ m, k, n int }) (dst, x, y *Tensor), run func(dst, x, y *Tensor)) {
	for _, sh := range benchShapes {
		for _, bk := range Backends() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.m, sh.k, sh.n, bk), func(b *testing.B) {
				prev := BackendName()
				if err := SetBackend(bk); err != nil {
					b.Fatal(err)
				}
				defer func() {
					if err := SetBackend(prev); err != nil {
						b.Fatal(err)
					}
				}()
				dst, x, y := mk(sh)
				b.SetBytes(int64(sh.m) * int64(sh.k) * int64(sh.n) * 4)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(dst, x, y)
				}
			})
		}
	}
}

func BenchmarkMatMulNN(b *testing.B) {
	benchMatMulBackends(b,
		func(sh struct{ m, k, n int }) (*Tensor, *Tensor, *Tensor) {
			rng := NewRNG(1)
			a := New(sh.m, sh.k)
			bb := New(sh.k, sh.n)
			FillUniform(a, rng, -1, 1)
			FillUniform(bb, rng, -1, 1)
			return New(sh.m, sh.n), a, bb
		},
		MatMul)
}

// BenchmarkMatMulNT benchmarks dst = a·bᵀ; b is allocated [n,k] so the
// benchmark exercises the same output shapes as NN. The 256x256x256/avx2
// cell is the headline kernel number guarded by CI.
func BenchmarkMatMulNT(b *testing.B) {
	benchMatMulBackends(b,
		func(sh struct{ m, k, n int }) (*Tensor, *Tensor, *Tensor) {
			rng := NewRNG(1)
			a := New(sh.m, sh.k)
			bt := New(sh.n, sh.k)
			FillUniform(a, rng, -1, 1)
			FillUniform(bt, rng, -1, 1)
			return New(sh.m, sh.n), a, bt
		},
		MatMulTB)
}

// BenchmarkMatMulTN benchmarks dst = aᵀ·b; a is allocated [k,m] so the
// benchmark exercises the same output shapes as NN (the dW = Xᵀ·dY shape).
func BenchmarkMatMulTN(b *testing.B) {
	benchMatMulBackends(b,
		func(sh struct{ m, k, n int }) (*Tensor, *Tensor, *Tensor) {
			rng := NewRNG(1)
			at := New(sh.k, sh.m)
			bb := New(sh.k, sh.n)
			FillUniform(at, rng, -1, 1)
			FillUniform(bb, rng, -1, 1)
			return New(sh.m, sh.n), at, bb
		},
		MatMulTA)
}

func BenchmarkTranspose(b *testing.B) {
	rng := NewRNG(1)
	a := New(1024, 1024)
	dst := New(1024, 1024)
	FillUniform(a, rng, -1, 1)
	b.SetBytes(1024 * 1024 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(dst, a)
	}
}

// BenchmarkSiLU times the FFN activation and its derivative over one
// long-context microbatch's [512, 256] gate, per registered backend.
func BenchmarkSiLU(b *testing.B) {
	x, dy, dst := New(512, 256), New(512, 256), New(512, 256)
	FillNormal(x, NewRNG(1), 2)
	FillNormal(dy, NewRNG(2), 1)
	for _, name := range Backends() {
		bk, _ := BackendByName(name)
		b.Run("fwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bk.SiLU(dst, x)
			}
		})
		b.Run("bwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bk.SiLUBackward(dst, x, dy)
			}
		})
	}
}
