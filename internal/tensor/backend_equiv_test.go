package tensor

import (
	"fmt"
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

// AdamW is exact on every backend: the vector kernels run the scalar
// loop's float64 sequence lane by lane, with the bias corrections taken as
// a corrected reciprocal multiply that lands on the divide's bits. Several
// steps over lengths that are not multiples of either vector width, with
// gradients that are zero, subnormal, huge or ordinary, must leave w, m and
// v with the scalar bits; then a long run over 65 541 lanes, 173 steps (11
// million lanes a backend) that reach past where C1 and C2 round to 1, with
// NaN gradients and, injected into the state each step, −0 and NaN moments,
// v = +Inf, negative and subnormal v. The gradient factor G runs through
// 1, a trainer's 1/n and clip scales, a subnormal factor, one that takes
// products subnormal, one that overflows them to ±Inf, ±Inf and NaN; every
// backend must leave the bits of ScaleF32(g, g, G) then a step at G = 1, on
// the scalar loop, and must not write g.
func TestBackendAdamWBitIdentical(t *testing.T) {
	others := nonScalarBackends()
	if len(others) == 0 {
		t.Skip("no non-scalar backend registered on this machine")
	}
	pinScalar(t)
	rng := rand.New(rand.NewSource(29))
	gradMix := func(g []float32, nanEvery int) {
		for i := range g {
			switch k := rng.Intn(8 * nanEvery); {
			case k == 0:
				g[i] = math.Float32frombits(0x7fc00000 | uint32(rng.Intn(1<<22)) | uint32(rng.Intn(2))<<31) // NaN
			case k%8 == 1:
				g[i] = math.Float32frombits(uint32(1 + rng.Intn(1<<23))) // subnormal
			case k%8 == 2:
				g[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1))) // ±0
			case k%512 == 3:
				g[i] = -math.MaxFloat32
			case k%64 == 4:
				g[i] = float32(rng.NormFloat64() * 1e37) // large
			default:
				g[i] = float32(rng.NormFloat64())
			}
		}
	}
	stepAt := func(step int) AdamWStep {
		s := AdamWStep{B1: 0.9, B2: 0.95, LR: 3e-4, Eps: 1e-8, G: 1}
		s.C1 = 1 - math.Pow(s.B1, float64(step))
		s.C2 = 1 - math.Pow(s.B2, float64(step))
		return s
	}
	inf := float32(math.Inf(1))
	factors := []float32{1, 0.125, 1.0 / 3, 0.70710677, 1e-39, 1e-30, 3e38, inf, -inf, float32(math.NaN())}
	for _, name := range append([]string{"scalar"}, others...) {
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 15, 17, 31, 33, 100, 1027} {
			for _, gs := range factors {
				wWant := make([]float32, n)
				for i := range wWant {
					wWant[i] = float32(rng.NormFloat64())
				}
				wGot := append([]float32(nil), wWant...)
				mWant, vWant := make([]float32, n), make([]float32, n)
				mGot, vGot := make([]float32, n), make([]float32, n)
				for step := 1; step <= 4; step++ {
					g := make([]float32, n)
					gradMix(g, 1)
					g0, scaled := append([]float32(nil), g...), make([]float32, n)
					s := stepAt(step)
					current().Scale(scaled, g, gs)
					current().AdamW(wWant, scaled, mWant, vWant, s)
					s.G = gs
					withBackend(t, name, func() { current().AdamW(wGot, g, mGot, vGot, s) })
					what := fmt.Sprintf("%s AdamW n=%d G=%g step %d", name, n, gs, step)
					requireBitwise(t, what+" w", wGot, wWant)
					requireBitwise(t, what+" m", mGot, mWant)
					requireBitwise(t, what+" v", vGot, vWant)
					requireBitwise(t, what+" g (read only)", g, g0)
				}
			}
		}
	}

	// The long run: every backend steps its own copy of one state beside
	// the scalar loop's. The gradients are windows of one pool, one NaN in
	// about 4 000, so most lanes stay finite to the end.
	const n = 1<<16 + 5
	pool := make([]float32, 4*n)
	gradMix(pool, 512)
	type state struct{ w, m, v []float32 }
	newState := func() state { return state{make([]float32, n), make([]float32, n), make([]float32, n)} }
	want, got := newState(), make([]state, len(others))
	for i := range want.w {
		want.w[i] = float32(rng.NormFloat64())
	}
	for k := range got {
		got[k] = newState()
		copy(got[k].w, want.w)
	}
	var steps []int
	for _, r := range [][2]int{{1, 60}, {330, 380}, {700, 750}, {99990, 100000}} {
		for step := r[0]; step <= r[1]; step++ {
			steps = append(steps, step)
		}
	}
	if c1, c2 := stepAt(steps[len(steps)-1]), stepAt(330); c1.C1 != 1 || c1.C2 != 1 || c2.C1 == 1 {
		t.Fatalf("the long run's steps do not cross C1 = 1 and C2 = 1: %+v %+v", c1, c2)
	}
	var lanes int
	for _, step := range steps {
		for j := 0; j < n/512; j++ {
			i := rng.Intn(n)
			var m, v float32
			switch rng.Intn(6) {
			case 0:
				m, v = float32(math.Copysign(0, -1)), float32(math.Copysign(0, -1))
			case 1:
				m, v = float32(rng.NormFloat64()), float32(math.Inf(1))
			case 2:
				m, v = float32(math.NaN()), 1
			case 3:
				m, v = 1e-3, -float32(rng.ExpFloat64()) // a flipped sign bit
			case 4:
				m, v = math.Float32frombits(0x80000001), math.Float32frombits(1)
			default:
				m, v = float32(math.Copysign(0, -1)), float32(rng.ExpFloat64())
			}
			want.m[i], want.v[i] = m, v
			for k := range got {
				got[k].m[i], got[k].v[i] = m, v
			}
		}
		off := rng.Intn(len(pool) - n)
		g, s := pool[off:off+n], stepAt(step)
		s.G = factors[step%5] // the finite factors
		current().AdamW(want.w, g, want.m, want.v, s)
		for k, name := range others {
			st := got[k]
			withBackend(t, name, func() { current().AdamW(st.w, g, st.m, st.v, s) })
			what := fmt.Sprintf("%s AdamW n=%d step %d", name, n, step)
			requireBitwise(t, what+" w", st.w, want.w)
			requireBitwise(t, what+" m", st.m, want.m)
			requireBitwise(t, what+" v", st.v, want.v)
		}
		lanes += n
	}
	if lanes < 10_000_000 {
		t.Fatalf("the long run stepped %d lanes a backend, want at least 10⁷", lanes)
	}
	var finite int
	for _, x := range want.w {
		if !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) {
			finite++
		}
	}
	if finite < n/2 {
		t.Fatalf("only %d of %d weights are finite after the long run: NaN took over the state", finite, n)
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
			current().Scale(want.Data, want.Data, s)
			withBackend(t, name, func() { current().Scale(got.Data, got.Data, s) })
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
	// AVX-512, where the width tests skip, or without VPCLMULQDQ, where
	// UpdateCRC32 is hash/crc32's loop, shows there.
	crc := "hash/crc32"
	if crcWide {
		crc = "512-bit VPCLMULQDQ"
	}
	t.Logf("registered backends %v, auto resolves to %s, wire CRC %s", Backends(), def, crc)
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

// TestBackendOfClassFallsBack pins the bit classes and the fallback a
// launch worker relies on: asked for avx512 where it is not registered,
// SetBackendOfClass selects avx2, which computes the same bits, and fails
// where no SIMD backend is registered; unknown names fail and change
// nothing.
func TestBackendOfClassFallsBack(t *testing.T) {
	for name, class := range map[string]string{"scalar": "scalar", "avx2": "simd", "avx512": "simd", "": "", "abft(avx2)": ""} {
		if got := BitClass(name); got != class {
			t.Fatalf("BitClass(%q) = %q, want %q", name, got, class)
		}
	}
	prev := BackendName()
	defer func() {
		if err := SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	backendMu.Lock()
	wide, hadWide := backends["avx512"]
	delete(backends, "avx512")
	backendMu.Unlock()
	defer func() {
		if hadWide {
			registerBackend(wide)
		}
	}()
	_, hasAVX2 := BackendByName("avx2")
	switch err := SetBackendOfClass("avx512"); {
	case hasAVX2 && (err != nil || BackendName() != "avx2"):
		t.Fatalf("SetBackendOfClass(avx512) without avx512: %v, running %q; want avx2", err, BackendName())
	case !hasAVX2 && err == nil:
		t.Fatalf("SetBackendOfClass(avx512) with no SIMD backend selected %q", BackendName())
	}
	if err := SetBackendOfClass("scalar"); err != nil || BackendName() != "scalar" {
		t.Fatalf("SetBackendOfClass(scalar): %v, running %q", err, BackendName())
	}
	if err := SetBackendOfClass("no-such-backend"); err == nil || BackendName() != "scalar" {
		t.Fatalf("SetBackendOfClass(no-such-backend): %v, running %q", err, BackendName())
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

// TestBackendRMSNormBitwise pins RMSNorm's kernels as exact on every
// backend: its float64 chains stay ascending per row however many rows are
// interleaved, and its elementwise parts keep scalar's roundings. Hidden
// sizes below, on and past the 8-lane step, row counts on and off the
// 4-row interleave; y aliasing x, dx aliasing dy, dg accumulating. The
// mean-square's order cannot show — its terms are positive, so no order
// moves the float32 1/rms — but the B pass's dot cancels: in rows 1–4
// (every lane of the interleave) and the last, its terms are 2³⁰, −2³⁰,
// 2⁻³⁰, which sum to 2⁻³⁰ ascending and to 0 in most other orders.
func TestBackendRMSNormBitwise(t *testing.T) {
	scalar, _ := BackendByName("scalar")
	rng := rand.New(rand.NewSource(16))
	for _, name := range simdBackends(t) {
		simd, _ := BackendByName(name)
		for _, h := range []int{1, 7, 8, 9, 64, 256} {
			for _, rows := range []int{1, 3, 4, 5, 9, 14} {
				what := fmt.Sprintf("%s h=%d rows=%d", name, h, rows)
				x, dy, gain := randTensor(rng, rows, h), randTensor(rng, rows, h), randTensor(rng, h)
				clear(x.Data[:h]) // an all-zero row: r = 1/sqrt(eps)
				for _, q := range []int{1, 2, 3, 4, rows - 1} {
					if h < 3 || q < 1 || q >= rows {
						continue
					}
					clear(x.Data[q*h : (q+1)*h])
					clear(dy.Data[q*h : (q+1)*h])
					copy(x.Data[q*h:], []float32{1, 1, 1})
					copy(dy.Data[q*h:], []float32{1 << 30, -1 << 30, 1.0 / (1 << 30)})
					copy(gain.Data, []float32{1, 1, 1})
				}
				y := [2]*Tensor{x.Clone(), x.Clone()}
				inv := [2]*Tensor{New(rows), New(rows)}
				dx := [2]*Tensor{dy.Clone(), dy.Clone()}
				seed := randTensor(rng, h)
				dg := [2]*Tensor{seed.Clone(), seed.Clone()}
				q := [2]*Tensor{New(rows, h), New(rows, h)}
				for i, bk := range []Backend{scalar, simd} {
					bk.RMSNormRows(y[i], inv[i], y[i], gain, 1e-5)
					bk.RMSNormBackward(dx[i], x, dx[i], gain, inv[i])
					bk.RMSNormGainTerms(q[i], x, dy, inv[i])
					bk.AddRowsInto(dg[i], q[i])
				}
				requireBitwise(t, what+" RMSNormRows (y aliasing x)", y[1].Data, y[0].Data)
				requireBitwise(t, what+" RMSNormRows inv", inv[1].Data, inv[0].Data)
				requireBitwise(t, what+" RMSNormBackward (dx aliasing dy)", dx[1].Data, dx[0].Data)
				requireBitwise(t, what+" RMSNormGainTerms", q[1].Data, q[0].Data)
				requireBitwise(t, what+" AddRowsInto", dg[1].Data, dg[0].Data)
			}
		}
	}
}

// gainGradLoop is RMSNorm's gain gradient as one W-pass loop computed it
// before the B pass formed its terms: dg_j += (dy_ij·x_ij)·inv_i, rows
// ascending. The conversion keeps the product rounded apart from the add
// on every architecture.
func gainGradLoop(dg, x, dy, inv []float32) {
	h := len(dg)
	for i, r := range inv {
		for j := range dg {
			dg[j] += float32(dy[i*h+j] * x[i*h+j] * r)
		}
	}
}

// TestRMSNormGainSplitMatchesGainGradLoop pins the split gain gradient on
// every registered backend (the scalar one alone under -tags noasm):
// RMSNormGainTerms, then AddRowsInto, give gainGradLoop's dg bit for bit,
// storing (into a cleared dg, as a fresh gradient set does) and
// accumulating (into a seeded one). The hidden sizes leave 8- and 16-lane
// tails empty, partial and a whole 8 lanes; q is its own tensor or aliases
// dy or x.
func TestRMSNormGainSplitMatchesGainGradLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, name := range Backends() {
		bk, _ := BackendByName(name)
		for _, h := range []int{1, 5, 8, 12, 16, 20, 24, 64, 72} {
			for _, rows := range []int{1, 3, 9, 64} {
				x, dy, inv := randTensor(rng, rows, h), randTensor(rng, rows, h), randTensor(rng, rows)
				for _, store := range []bool{true, false} {
					seed := randTensor(rng, h)
					if store {
						clear(seed.Data)
					}
					want := seed.Clone()
					gainGradLoop(want.Data, x.Data, dy.Data, inv.Data)
					for _, alias := range []string{"none", "dy", "x"} {
						xa, dya, q := x.Clone(), dy.Clone(), New(rows, h)
						switch alias {
						case "dy":
							q = dya
						case "x":
							q = xa
						}
						got := seed.Clone()
						bk.RMSNormGainTerms(q, xa, dya, inv)
						bk.AddRowsInto(got, q)
						requireBitwise(t, fmt.Sprintf("%s h=%d rows=%d store=%v q aliasing %s",
							name, h, rows, store, alias), got.Data, want.Data)
					}
				}
			}
		}
	}
}

// TestBackendRopeBitwise pins Rope as exact on every backend, forward and
// inverse, at head dims below one vector, on it, and with a ragged pair
// tail past one or more, over one sequence and several.
func TestBackendRopeBitwise(t *testing.T) {
	scalar, _ := BackendByName("scalar")
	rng := rand.New(rand.NewSource(17))
	for _, name := range simdBackends(t) {
		simd, _ := BackendByName(name)
		for _, d := range []int{2, 6, 8, 10, 16, 18, 64} {
			for _, heads := range []int{1, 3, 4} {
				for _, sh := range [][2]int{{1, 1}, {7, 1}, {5, 3}} {
					seqLen, g := sh[0], sh[1]
					cos, sin := randTensor(rng, seqLen*d/2), randTensor(rng, seqLen*d/2)
					q := randTensor(rng, g*seqLen, heads*d)
					for _, dir := range []float32{1, -1} {
						want, got := q.Clone(), q.Clone()
						scalar.Rope(want, cos.Data, sin.Data, seqLen, heads, dir)
						simd.Rope(got, cos.Data, sin.Data, seqLen, heads, dir)
						requireBitwise(t, fmt.Sprintf("%s Rope d=%d heads=%d S=%d G=%d dir=%v",
							name, d, heads, seqLen, g, dir), got.Data, want.Data)
					}
				}
			}
		}
	}
}

// TestBackendSoftmaxEquivalence bounds the SIMD backends' row softmax — the
// float32 vector exp and a lane-split float32 row sum, where scalar rounds a
// float64 math.Exp and sums in float64 — against scalar: within 4e-6
// relative per element (the 1e-30 floor covers entries scalar leaves
// subnormal and the vector exp flushes), each row summing to 1 within 4e-6,
// at row lengths around the 8-lane step and the head's 256, with −Inf and
// very negative entries and dst aliasing the input. Over 800 random rows of
// each length up to 257 the worst deviations were 5.8e-7 and 4.2e-7; one
// term dropped from a 257-long row is ~1e-3.
func TestBackendSoftmaxEquivalence(t *testing.T) {
	pinScalar(t)
	rng := rand.New(rand.NewSource(18))
	special := []float32{float32(math.Inf(-1)), -1e30, -100, -88, -87, 40}
	for _, name := range simdBackends(t) {
		for _, c := range []int{1, 7, 8, 9, 255, 256, 257} {
			const rows = 5
			x := randTensor(rng, rows, c)
			for i := range x.Data {
				x.Data[i] *= 4
			}
			// Row 1 (and row 2, where there is room) holds the special
			// entries beside an ordinary maximum.
			copy(x.Data[c+1:2*c], special)
			copy(x.Data[2*c+1:], special[:min(len(special), c-1)])
			want, got, alias := New(rows, c), New(rows, c), x.Clone()
			current().SoftmaxRows(want, x)
			withBackend(t, name, func() {
				current().SoftmaxRows(got, x)
				current().SoftmaxRows(alias, alias)
			})
			requireBitwise(t, fmt.Sprintf("%s SoftmaxRows c=%d dst=a", name, c), alias.Data, got.Data)
			for i := 0; i < rows; i++ {
				var sum float64
				for j := 0; j < c; j++ {
					w, g := float64(want.Data[i*c+j]), float64(got.Data[i*c+j])
					if diff := math.Abs(g - w); !(diff <= 4e-6*w+1e-30) {
						t.Fatalf("%s SoftmaxRows c=%d [%d,%d] (x=%g): %g vs scalar %g, |diff| %g",
							name, c, i, j, x.Data[i*c+j], g, w, diff)
					}
					sum += g
				}
				if math.Abs(sum-1) > 4e-6 {
					t.Fatalf("%s SoftmaxRows c=%d row %d sums to %v", name, c, i, sum)
				}
			}
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
