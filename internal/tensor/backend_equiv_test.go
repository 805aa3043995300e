package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The backend equivalence suite: every registered backend is checked
// against the scalar oracle over edge-case shapes. Order-preserving
// kernels (Add, Mul, Axpy, Scale, AddInto, Dot) must match bit for bit on
// every backend; on tolerance-mode backends the three matmul forms (one
// fused chain per element) and DotF32 (the one lane-split reduction) must
// stay within a bound derived from the absolute-value dot product.

// equivShapes covers the dispatch edge cases: unit dims, odd sizes,
// non-multiples of the 8-lane vector width and of the 4-wide unrolls,
// sizes straddling the scalar kernels' blockK/blockN boundaries (and with
// them NT's transposed b panel and k block), and — the cross product at the
// end — every row tail of the 6×16 GEMM tile (m%6 of 1, 5, 0, and the 7 and
// 13 that split 4+3 and 6+4+3) against every column tail (one masked vector,
// a full one, a full and a masked one, 172 = ten tiles and both) and k.
var equivShapes = func() [][3]int {
	shapes := [][3]int{
		{1, 1, 1},
		{1, 5, 3},
		{3, 1, 7},
		{7, 9, 1},
		{2, 3, 4},
		{8, 8, 8},
		{5, 13, 17},
		{9, 7, 15},
		{16, 16, 16},
		{31, 33, 63},
		{33, 7, 65},
		{4, 260, 66},
		{3, 258, 130},
		{64, 64, 64},
	}
	for _, m := range []int{1, 5, 6, 7, 13} {
		for _, n := range []int{1, 7, 8, 15, 16, 17, 172} {
			for _, k := range []int{1, 3, 64, 65} {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	return shapes
}()

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func requireBitwise(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d = %b, want %b", what, i, got[i], want[i])
		}
	}
}

// pinScalar selects the scalar oracle for the rest of the test, so that
// current() is the reference side of a comparison whatever this machine's
// default backend is.
func pinScalar(t *testing.T) {
	t.Helper()
	prev := BackendName()
	if err := SetBackend("scalar"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := SetBackend(prev); err != nil {
			t.Fatalf("restore backend %q: %v", prev, err)
		}
	})
}

// withBackend runs fn with the named backend selected, restoring the
// previous backend afterwards.
func withBackend(t *testing.T, name string, fn func()) {
	t.Helper()
	prev := BackendName()
	if err := SetBackend(name); err != nil {
		t.Fatalf("SetBackend(%q): %v", name, err)
	}
	defer func() {
		if err := SetBackend(prev); err != nil {
			t.Fatalf("restore backend %q: %v", prev, err)
		}
	}()
	fn()
}

// nonScalarBackends returns the names of every registered backend except
// the scalar oracle (empty on machines with no SIMD backend).
func nonScalarBackends() []string {
	var names []string
	for _, n := range Backends() {
		if n != "scalar" {
			names = append(names, n)
		}
	}
	return names
}

// simdLanes is the vector width each SIMD backend hands its matmul and
// attention kernels (mmArgs.simd, attnArgs.simd).
var simdLanes = map[string]lanes{"avx2": 8, "avx512": 16}

// simdBackends is nonScalarBackends for a test of the kernels under the
// backends: it skips, naming what is missing, where none is registered.
func simdBackends(t *testing.T) []string {
	t.Helper()
	names := nonScalarBackends()
	if len(names) == 0 {
		t.Skip("no SIMD backend registered: needs an amd64 build without noasm on a CPU with AVX2+FMA")
	}
	return names
}

// tolUlps is the relative reassociation bound of the lane-split DotF32:
// splitting a float32 sum into 8 lanes plus a balanced tree changes each
// partial by a few ULPs; 4e-7 (~3.4 float32 ULPs) times the absolute-value
// sum covers it with margin while still catching real kernel bugs, which
// produce errors orders of magnitude larger.
const tolUlps = 4e-7

// tolFMA is the bound of the matmul forms, all three on the GEMM kernel: one
// ascending FMA chain per element keeps scalar's order (for NN and TN;
// scalar NT splits its ragged columns four ways) but rounds once per step
// where scalar's mul-then-add rounds twice. Measured over ~4 M elements (k
// from 8 to 2048, unit normals) the worst deviation was 4.0e-7 of the
// absolute-value sum, and the fuzzer found a TN element at 4.7e-7 (seeded
// below); 1e-6 (~8 float32 ULPs) covers that with margin — a dropped or
// doubled term is 1/k of the sum, orders of magnitude larger.
const tolFMA = 1e-6

// mmForm is one of the three matmul forms: how it runs on the current
// backend and how its operands are laid out for a given (m, n, k).
type mmForm struct {
	name string
	// tol bounds the form's deviation from scalar, relative to Σ|ab|.
	tol            float64
	run            func(dst, a, b *Tensor, acc bool)
	aShape, bShape func(m, n, k int) [2]int
	// aAt and bAt index a[i,p] and b[p,j] of the product's canonical form.
	aAt, bAt func(m, n, k, i, p int) int
}

// mmForms lists the forms in mmKind order (mmNN, mmNT, mmTN), so an index
// into it is the kind.
var mmForms = []mmForm{
	{"NN", tolFMA,
		func(dst, a, b *Tensor, acc bool) { current().MatMulNN(dst, a, b, acc) },
		func(m, n, k int) [2]int { return [2]int{m, k} },
		func(m, n, k int) [2]int { return [2]int{k, n} },
		func(m, n, k, i, p int) int { return i*k + p },
		func(m, n, k, p, j int) int { return p*n + j }},
	{"NT", tolFMA,
		func(dst, a, b *Tensor, acc bool) { current().MatMulNT(dst, a, b, acc) },
		func(m, n, k int) [2]int { return [2]int{m, k} },
		func(m, n, k int) [2]int { return [2]int{n, k} },
		func(m, n, k, i, p int) int { return i*k + p },
		func(m, n, k, p, j int) int { return j*k + p }},
	{"TN", tolFMA,
		func(dst, a, b *Tensor, acc bool) { current().MatMulTN(dst, a, b, acc) },
		func(m, n, k int) [2]int { return [2]int{k, m} },
		func(m, n, k int) [2]int { return [2]int{k, n} },
		func(m, n, k, i, p int) int { return p*m + i },
		func(m, n, k, p, j int) int { return p*n + j }},
}

// operands draws a and b of the form for an (m, n, k) product.
func (f mmForm) operands(rng *rand.Rand, m, n, k int) (a, b *Tensor) {
	as, bs := f.aShape(m, n, k), f.bShape(m, n, k)
	return randTensor(rng, as[0], as[1]), randTensor(rng, bs[0], bs[1])
}

// absDot returns Σ_p |a[i,p]|·|b[p,j]|, the scale factor of the
// reassociation error bound of output element (i, j).
func (f mmForm) absDot(a, b *Tensor, m, n, k, i, j int) float64 {
	var s float64
	for p := 0; p < k; p++ {
		s += math.Abs(float64(a.Data[f.aAt(m, n, k, i, p)])) * math.Abs(float64(b.Data[f.bAt(m, n, k, p, j)]))
	}
	return s
}

func TestBackendMatMulEquivalence(t *testing.T) {
	others := nonScalarBackends()
	if len(others) == 0 {
		t.Skip("no non-scalar backend registered on this machine")
	}
	pinScalar(t)
	rng := rand.New(rand.NewSource(11))
	for _, name := range others {
		for _, f := range mmForms {
			for _, acc := range []bool{false, true} {
				for _, sh := range equivShapes {
					m, n, k := sh[0], sh[1], sh[2]
					a, b := f.operands(rng, m, n, k)
					seed := randTensor(rng, m, n)
					want, got := seed.Clone(), seed.Clone()

					f.run(want, a, b, acc)
					withBackend(t, name, func() { f.run(got, a, b, acc) })

					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							w, g := want.Data[i*n+j], got.Data[i*n+j]
							bound := f.tol * f.absDot(a, b, m, n, k, i, j)
							if acc {
								bound += f.tol * math.Abs(float64(seed.Data[i*n+j]))
							}
							if diff := math.Abs(float64(w) - float64(g)); !(diff <= bound+1e-12) {
								t.Fatalf("%s/%s acc=%v shape %v: dst[%d,%d] = %g, scalar %g, |diff| %g > bound %g",
									name, f.name, acc, sh, i, j, g, w, diff, bound)
							}
						}
					}
				}
			}
		}
	}
}

// TestBackendMatMulAccAliasedHistory checks the accumulate path against a
// dst that already holds a previous matmul result from the same backend —
// the aliased-accumulate pattern of the backward pass (dW += xᵀ·dy): the
// bound is the sum of the two products' bounds.
func TestBackendMatMulAccAliasedHistory(t *testing.T) {
	others := nonScalarBackends()
	if len(others) == 0 {
		t.Skip("no non-scalar backend registered on this machine")
	}
	pinScalar(t)
	rng := rand.New(rand.NewSource(12))
	tn := mmForms[mmTN]
	for _, name := range others {
		for _, sh := range equivShapes {
			m, n, k := sh[0], sh[1], sh[2]
			a1, b1 := tn.operands(rng, m, n, k)
			a2, b2 := tn.operands(rng, m, n, k)
			want := New(m, n)
			got := New(m, n)

			tn.run(want, a1, b1, false)
			tn.run(want, a2, b2, true)
			withBackend(t, name, func() {
				tn.run(got, a1, b1, false)
				tn.run(got, a2, b2, true)
			})
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					bound := tn.tol * (tn.absDot(a1, b1, m, n, k, i, j) + tn.absDot(a2, b2, m, n, k, i, j))
					if diff := math.Abs(float64(want.Data[i*n+j]) - float64(got.Data[i*n+j])); !(diff <= bound+1e-12) {
						t.Fatalf("%s TN acc-chain shape %v: dst[%d,%d] = %g, scalar %g, |diff| %g > bound %g",
							name, sh, i, j, got.Data[i*n+j], want.Data[i*n+j], diff, bound)
					}
				}
			}
		}
	}
}

func TestBackendElementwiseEquivalence(t *testing.T) {
	others := nonScalarBackends()
	if len(others) == 0 {
		t.Skip("no non-scalar backend registered on this machine")
	}
	pinScalar(t)
	rng := rand.New(rand.NewSource(13))
	sizes := []int{1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 100, 255, 1024}
	for _, name := range others {
		for _, sz := range sizes {
			a := randTensor(rng, sz)
			seed := randTensor(rng, sz)
			s := float32(rng.NormFloat64())

			// Axpy: bit-identical on every backend.
			want, got := New(sz), New(sz)
			copy(want.Data, seed.Data)
			copy(got.Data, seed.Data)
			current().Axpy(want, s, a)
			withBackend(t, name, func() { current().Axpy(got, s, a) })
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%s Axpy n=%d elem %d: %g vs scalar %g", name, sz, i, got.Data[i], want.Data[i])
				}
			}

			// Scale, aliased dst==a: bit-identical.
			copy(want.Data, a.Data)
			copy(got.Data, a.Data)
			current().Scale(want, want, s)
			withBackend(t, name, func() { current().Scale(got, got, s) })
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%s Scale(aliased) n=%d elem %d: %g vs scalar %g", name, sz, i, got.Data[i], want.Data[i])
				}
			}

			// AddInto: bit-identical.
			copy(want.Data, seed.Data)
			copy(got.Data, seed.Data)
			current().AddInto(want.Data, a.Data)
			withBackend(t, name, func() { current().AddInto(got.Data, a.Data) })
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%s AddInto n=%d elem %d: %g vs scalar %g", name, sz, i, got.Data[i], want.Data[i])
				}
			}

			// Dot (float64 accumulation): bit-identical on every backend.
			b := randTensor(rng, sz)
			dw := current().Dot(a, b)
			var dg float64
			withBackend(t, name, func() { dg = current().Dot(a, b) })
			if dw != dg {
				t.Fatalf("%s Dot n=%d: %g vs scalar %g", name, sz, dg, dw)
			}

			// DotF32: tolerance-bounded.
			fw := current().DotF32(a, b)
			var fg float32
			withBackend(t, name, func() { fg = current().DotF32(a, b) })
			var absSum float64
			for i := range a.Data {
				absSum += math.Abs(float64(a.Data[i])) * math.Abs(float64(b.Data[i]))
			}
			if diff := math.Abs(float64(fw) - float64(fg)); diff > tolUlps*absSum+1e-12 {
				t.Fatalf("%s DotF32 n=%d: %g vs scalar %g, |diff| %g > bound %g",
					name, sz, fg, fw, diff, tolUlps*absSum)
			}
		}
	}
}

// TestBackendAddMulBitwise pins Add and Mul as exact on every backend — one
// rounding per element, whatever the vector width — at lengths around the
// 8-lane step (and none at all), with dst apart from and aliasing either
// operand.
func TestBackendAddMulBitwise(t *testing.T) {
	others := nonScalarBackends()
	if len(others) == 0 {
		t.Skip("no non-scalar backend registered on this machine")
	}
	scalar, _ := BackendByName("scalar")
	rng := rand.New(rand.NewSource(15))
	ops := []struct {
		name string
		run  func(bk Backend, dst, a, b *Tensor)
	}{
		{"Add", func(bk Backend, dst, a, b *Tensor) { bk.Add(dst, a, b) }},
		{"Mul", func(bk Backend, dst, a, b *Tensor) { bk.Mul(dst, a, b) }},
	}
	for _, name := range others {
		simd, _ := BackendByName(name)
		for _, sz := range []int{0, 7, 8, 9, 1023} {
			// Tensors have no empty shape; the kernels see only Data.
			draw := func() *Tensor {
				x := &Tensor{Data: make([]float32, sz)}
				for i := range x.Data {
					x.Data[i] = float32(rng.NormFloat64())
				}
				return x
			}
			clone := func(x *Tensor) *Tensor { return &Tensor{Data: append([]float32(nil), x.Data...)} }
			a, b := draw(), draw()
			for _, op := range ops {
				want, apart, onA, onB := draw(), draw(), clone(a), clone(b)
				op.run(scalar, want, a, b)
				op.run(simd, apart, a, b)
				op.run(simd, onA, onA, b)
				op.run(simd, onB, a, onB)
				requireBitwise(t, name+" "+op.name, apart.Data, want.Data)
				requireBitwise(t, name+" "+op.name+" dst=a", onA.Data, want.Data)
				requireBitwise(t, name+" "+op.name+" dst=b", onB.Data, want.Data)
			}
		}
	}
}

// TestBackendRegistry exercises the selection API.
func TestBackendRegistry(t *testing.T) {
	// The process starts on the best registered backend: the widest SIMD
	// one the build and CPU have — not the first by name, which would be
	// avx2 — and the scalar oracle everywhere else.
	def := "scalar"
	for _, name := range nonScalarBackends() {
		if simdLanes[name] > simdLanes[def] {
			def = name
		}
	}
	if BackendName() != def {
		t.Fatalf("default backend = %q, want %q", BackendName(), def)
	}
	// `make backends` greps this line into the CI log: a runner without
	// AVX-512, where the width tests skip, shows there.
	t.Logf("registered backends %v, auto resolves to %s", Backends(), def)
	if b, _ := BackendByName("scalar"); !b.Exact() {
		t.Fatal("scalar backend must report Exact")
	}
	if err := SetBackend("no-such-backend"); err == nil {
		t.Fatal("SetBackend with unknown name must fail")
	}
	if BackendName() != def {
		t.Fatalf("failed SetBackend changed backend to %q", BackendName())
	}
	names := Backends()
	found := false
	for _, n := range names {
		if n == "scalar" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Backends() = %v, missing scalar", names)
	}
	// The oracle is one call away, and auto returns to the default.
	withBackend(t, "scalar", func() {
		if BackendName() != "scalar" || !BackendExact() {
			t.Fatalf("pinned scalar, running %q (exact %v)", BackendName(), BackendExact())
		}
		withBackend(t, "auto", func() {
			if BackendName() != def {
				t.Fatalf("auto selected %q, want %q", BackendName(), def)
			}
		})
	})
	if BackendName() != def {
		t.Fatalf("backend not restored, now %q", BackendName())
	}
}

// TestBackendSiLUEquivalence bounds the SIMD backends' SiLU pair — sigmoid
// from a float32 vector exp — against the scalar kernels, which round a
// float64 math.Exp: within 1e-6 relative, including large arguments of
// either sign (where scalar's sigmoid is subnormal and the vector exp has
// flushed to zero: the 1e-30 floor) and zero. The derivative σ + v·σ·(1−σ)
// cancels near v ≈ −1.28, so its bound is relative to the sum of its terms'
// magnitudes, the convention of the matmul bounds. An element's result must
// not depend on its position in the tensor.
func TestBackendSiLUEquivalence(t *testing.T) {
	others := nonScalarBackends()
	if len(others) == 0 {
		t.Skip("no non-scalar backend registered on this machine")
	}
	pinScalar(t)
	rng := rand.New(rand.NewSource(14))
	special := []float32{0, float32(math.Copysign(0, -1)), 1e-8, -1e-8, 0.5, -0.5, 5, -5, 16, -16, 17.5, -17.5,
		30, -30, 80, -80, 87, -87, 88, -88, 100, -100, 1e4, -1e4, 1e30, -1e30}
	for _, name := range others {
		for _, sz := range []int{1, 7, 8, 9, 31, 64, 100, 1000} {
			x, dy := randTensor(rng, sz), randTensor(rng, sz)
			for i := range x.Data {
				x.Data[i] *= 6
			}
			copy(x.Data, special)
			wantY, wantDx, gotY, gotDx := New(sz), New(sz), New(sz), New(sz)
			current().SiLU(wantY, x)
			current().SiLUBackward(wantDx, x, dy)
			withBackend(t, name, func() {
				current().SiLU(gotY, x)
				current().SiLUBackward(gotDx, x, dy)
			})
			for i, v := range x.Data {
				sig := 1 / (1 + math.Exp(-float64(v)))
				terms := math.Abs(float64(dy.Data[i])) * (sig + math.Abs(float64(v))*sig*(1-sig))
				for _, c := range []struct {
					op        string
					got, want float32
					magnitude float64
				}{
					{"SiLU", gotY.Data[i], wantY.Data[i], math.Abs(float64(wantY.Data[i]))},
					{"SiLUBackward", gotDx.Data[i], wantDx.Data[i], terms},
				} {
					bound := 1e-6*c.magnitude + 1e-30
					if diff := math.Abs(float64(c.got) - float64(c.want)); !(diff <= bound) {
						t.Fatalf("%s %s n=%d x=%g: %g vs scalar %g, |diff| %g > %g",
							name, c.op, sz, v, c.got, c.want, diff, bound)
					}
				}
			}
			// Aliased dst, and every element moved to another position.
			withBackend(t, name, func() {
				alias := x.Clone()
				current().SiLU(alias, alias)
				rev, revDy := New(sz), New(sz)
				for i := range x.Data {
					rev.Data[sz-1-i], revDy.Data[sz-1-i] = x.Data[i], dy.Data[i]
				}
				revY, revDx := New(sz), New(sz)
				current().SiLU(revY, rev)
				current().SiLUBackward(revDx, rev, revDy)
				for i := range x.Data {
					if math.Float32bits(alias.Data[i]) != math.Float32bits(gotY.Data[i]) {
						t.Fatalf("%s SiLU n=%d elem %d: aliased %g, separate %g", name, sz, i, alias.Data[i], gotY.Data[i])
					}
					if math.Float32bits(revY.Data[sz-1-i]) != math.Float32bits(gotY.Data[i]) ||
						math.Float32bits(revDx.Data[sz-1-i]) != math.Float32bits(gotDx.Data[i]) {
						t.Fatalf("%s n=%d: x=%g gives a different result at position %d than at %d",
							name, sz, x.Data[i], sz-1-i, i)
					}
				}
			})
		}
	}
}

// FuzzBackendNTEquivalence drives the tolerance contract of the three
// matmul forms with fuzzer-chosen shapes and data (the name predates NN
// and TN joining NT in tolerance mode). The arguments are m−1, n−1, k−1.
func FuzzBackendNTEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(3), uint16(5), uint16(9))
	f.Add(int64(7), uint16(0), uint16(0), uint16(0))
	f.Add(int64(42), uint16(16), uint16(8), uint16(32))
	f.Add(int64(99), uint16(5), uint16(4), uint16(65))
	f.Add(int64(5), uint16(13), uint16(17), uint16(3))
	f.Add(int64(88), uint16(11), uint16(14), uint16(94)) // TN 12×15×95: 4.7e-7 of Σ|ab|
	// The ragged shapes of TestNTEqualsNNOfTranspose: m, n and k on, one
	// short of and one past the register tile, the b panel and the k block.
	for i, sh := range [][3]uint16{
		{1, 1, 1}, {5, 15, 7}, {6, 64, 64}, {7, 65, 129}, {512, 172, 172},
		{512, 64, 172}, {512, 172, 64}, {5, 172, 129}, {7, 64, 1}, {1, 65, 172},
	} {
		f.Add(int64(100+i), sh[0]-1, sh[1]-1, sh[2]-1)
	}
	f.Fuzz(func(t *testing.T, seed int64, mr, nr, kr uint16) {
		others := nonScalarBackends()
		if len(others) == 0 {
			t.Skip("no non-scalar backend registered")
		}
		pinScalar(t)
		m := int(mr%512) + 1
		n := int(nr%192) + 1
		k := int(kr%192) + 1
		rng := rand.New(rand.NewSource(seed))
		for _, form := range mmForms {
			a, b := form.operands(rng, m, n, k)
			want := New(m, n)
			got := New(m, n)
			form.run(want, a, b, false)
			for _, name := range others {
				withBackend(t, name, func() { form.run(got, a, b, false) })
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						bound := form.tol*form.absDot(a, b, m, n, k, i, j) + 1e-12
						diff := math.Abs(float64(want.Data[i*n+j]) - float64(got.Data[i*n+j]))
						if !(diff <= bound) {
							t.Fatalf("%s %s %dx%dx%d dst[%d,%d]: |diff| %g > bound %g",
								name, form.name, m, n, k, i, j, diff, bound)
						}
					}
				}
			}
		}
	})
}
