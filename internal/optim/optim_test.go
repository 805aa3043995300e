package optim

import (
	"math"
	"testing"

	"weipipe/internal/tensor"
)

func TestSGDStep(t *testing.T) {
	w := []float32{1, 2}
	g := []float32{0.5, -0.5}
	s := NewSGD(2, 0.1, 0)
	s.Step(w, g)
	if math.Abs(float64(w[0])-0.95) > 1e-6 || math.Abs(float64(w[1])-2.05) > 1e-6 {
		t.Fatalf("w = %v", w)
	}
	if s.StateBytes() != 0 {
		t.Fatalf("momentum-free SGD state = %d", s.StateBytes())
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	w := []float32{0}
	s := NewSGD(1, 1.0, 0.5)
	s.Step(w, []float32{1}) // vel=1, w=-1
	s.Step(w, []float32{1}) // vel=1.5, w=-2.5
	if math.Abs(float64(w[0])+2.5) > 1e-6 {
		t.Fatalf("w = %v", w)
	}
	if s.StateBytes() != 4 {
		t.Fatalf("StateBytes = %d", s.StateBytes())
	}
}

func TestAdamWFirstStepIsLR(t *testing.T) {
	// With bias correction, the first AdamW step is ≈ lr·sign(g).
	w := []float32{1, 1}
	g := []float32{0.3, -0.7}
	o := NewAdamW(2, DefaultAdamW(0.01))
	o.Step(w, g)
	if math.Abs(float64(w[0])-(1-0.01)) > 1e-4 {
		t.Fatalf("w[0] = %v, want ≈ 0.99", w[0])
	}
	if math.Abs(float64(w[1])-(1+0.01)) > 1e-4 {
		t.Fatalf("w[1] = %v, want ≈ 1.01", w[1])
	}
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	// minimise (w-3)²
	w := []float32{0}
	o := NewAdamW(1, DefaultAdamW(0.1))
	for i := 0; i < 500; i++ {
		g := []float32{2 * (w[0] - 3)}
		o.Step(w, g)
	}
	if math.Abs(float64(w[0])-3) > 0.05 {
		t.Fatalf("w = %v, want ≈ 3", w[0])
	}
}

func TestAdamWDeterministic(t *testing.T) {
	mk := func() []float32 {
		w := []float32{1, -2, 3}
		o := NewAdamW(3, DefaultAdamW(0.05))
		for i := 0; i < 10; i++ {
			o.Step(w, []float32{0.1, -0.2, 0.3})
		}
		return w
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("AdamW nondeterministic")
		}
	}
}

func TestAdamWWeightDecay(t *testing.T) {
	cfg := DefaultAdamW(0.1)
	cfg.WeightDecay = 0.1
	o := NewAdamW(1, cfg)
	w := []float32{10}
	o.Step(w, []float32{0})
	// zero grad → pure decay: w *= (1 − lr·wd)
	want := 10 * (1 - 0.1*0.1)
	if math.Abs(float64(w[0])-want) > 1e-4 {
		t.Fatalf("w = %v, want %v", w[0], want)
	}
}

func TestAdamWSizeMismatchPanics(t *testing.T) {
	o := NewAdamW(2, DefaultAdamW(0.1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	o.Step([]float32{1}, []float32{1})
}

func TestAdamWStateBytes(t *testing.T) {
	o := NewAdamW(100, DefaultAdamW(0.1))
	if o.StateBytes() != 800 {
		t.Fatalf("StateBytes = %d, want 800", o.StateBytes())
	}
}

func TestClipByGlobalNorm(t *testing.T) {
	g := []float32{3, 4} // norm 5
	n := ClipByGlobalNorm(g, 1)
	if math.Abs(n-5) > 1e-6 {
		t.Fatalf("returned norm %v", n)
	}
	if math.Abs(GlobalNorm(g)-1) > 1e-6 {
		t.Fatalf("clipped norm = %v", GlobalNorm(g))
	}
	// below the cap: untouched
	g2 := []float32{0.3, 0.4}
	ClipByGlobalNorm(g2, 1)
	if g2[0] != 0.3 || g2[1] != 0.4 {
		t.Fatal("clip modified small gradient")
	}
}

func TestWarmupCosineShape(t *testing.T) {
	sch := WarmupCosine{Base: 1.0, Floor: 0.1, Warmup: 10, Total: 110}
	// warm-up is linear and increasing
	for i := 1; i < 10; i++ {
		if sch.LR(i) <= sch.LR(i-1) {
			t.Fatalf("warmup not increasing at %d", i)
		}
	}
	// peak ≈ base right after warmup
	if math.Abs(sch.LR(10)-1.0) > 1e-9 {
		t.Fatalf("post-warmup LR = %v", sch.LR(10))
	}
	// decays monotonically to the floor
	for i := 11; i < 110; i++ {
		if sch.LR(i) > sch.LR(i-1)+1e-12 {
			t.Fatalf("decay not monotone at %d", i)
		}
	}
	if math.Abs(sch.LR(109)-0.1) > 0.01 {
		t.Fatalf("end LR = %v, want ≈ floor", sch.LR(109))
	}
	if sch.LR(1000) != 0.1 {
		t.Fatalf("past-total LR = %v, want floor", sch.LR(1000))
	}
	// halfway point is the midpoint of base and floor
	mid := sch.LR(60)
	if math.Abs(mid-0.55) > 0.02 {
		t.Fatalf("midpoint LR = %v, want ≈ 0.55", mid)
	}
}

func TestAdamWSetLR(t *testing.T) {
	o := NewAdamW(1, DefaultAdamW(0.1))
	o.SetLR(0.2)
	if o.LR() != 0.2 {
		t.Fatalf("LR = %v", o.LR())
	}
	w := []float32{1}
	o.Step(w, []float32{1})
	// first AdamW step ≈ lr·sign(g)
	if math.Abs(float64(w[0])-(1-0.2)) > 1e-3 {
		t.Fatalf("step did not use new LR: w=%v", w[0])
	}
}

// BenchmarkAdamWStep times one step over 820 800 parameters — a rank's chunk
// of the wide benchmark shape — on each registered backend; ns/param is the
// reported ns/op divided by the size.
func BenchmarkAdamWStep(b *testing.B) {
	const n = 820800
	prev := tensor.BackendName()
	defer tensor.SetBackend(prev)
	for _, name := range tensor.Backends() {
		b.Run(name, func(b *testing.B) {
			if err := tensor.SetBackend(name); err != nil {
				b.Fatal(err)
			}
			w, g := make([]float32, n), make([]float32, n)
			for i := range g {
				w[i], g[i] = float32(i%97)*0.01, float32(i%89-44)*0.001
			}
			o := NewAdamW(n, DefaultAdamW(1e-3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Step(w, g)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/param")
		})
	}
}
