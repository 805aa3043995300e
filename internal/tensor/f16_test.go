package tensor

import (
	"math"
	"testing"
)

func TestBF16RoundTrip(t *testing.T) {
	vals := []float32{0, 1, -1, 3.14159, 1e20, -1e-20, 65504}
	for _, v := range vals {
		rt := BF16ToF32(F32ToBF16(v))
		if v == 0 {
			if rt != 0 {
				t.Fatalf("bf16(0) = %v", rt)
			}
			continue
		}
		rel := math.Abs(float64(rt-v)) / math.Abs(float64(v))
		if rel > 1.0/128 {
			t.Fatalf("bf16 rel err %v for %v (got %v)", rel, v, rt)
		}
	}
	if !math.IsNaN(float64(BF16ToF32(F32ToBF16(float32(math.NaN()))))) {
		t.Fatal("bf16 NaN lost")
	}
}

func TestBF16PackKernels(t *testing.T) {
	rng := NewRNG(9)
	x := New(129) // odd length: no whole-vector alignment assumptions
	FillNormal(x, rng, 1)

	// RoundBF16Slice matches the scalar round-trip elementwise.
	rounded := append([]float32(nil), x.Data...)
	RoundBF16Slice(rounded)
	for i, v := range x.Data {
		if want := BF16ToF32(F32ToBF16(v)); rounded[i] != want {
			t.Fatalf("RoundBF16Slice[%d] = %v, want %v", i, rounded[i], want)
		}
	}

	// Pack/Unpack round-trips through the 2-byte LE wire format onto the
	// rounded values.
	buf := make([]byte, 2*len(x.Data))
	PackBF16LE(buf, x.Data)
	for i, v := range x.Data {
		h := F32ToBF16(v)
		if buf[2*i] != byte(h) || buf[2*i+1] != byte(h>>8) {
			t.Fatalf("PackBF16LE[%d] wrong byte order", i)
		}
	}
	out := make([]float32, len(x.Data))
	UnpackBF16LE(out, buf)
	for i := range out {
		if out[i] != rounded[i] {
			t.Fatalf("UnpackBF16LE[%d] = %v, want %v", i, out[i], rounded[i])
		}
	}
}

func TestPackBF16LEShortDstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackBF16LE accepted a short destination")
		}
	}()
	PackBF16LE(make([]byte, 3), []float32{1, 2})
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestRNGDistributions(t *testing.T) {
	r := NewRNG(5)
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v", variance)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFillers(t *testing.T) {
	r := NewRNG(6)
	x := New(10, 20)
	FillXavier(x, r)
	limit := math.Sqrt(6.0 / 30.0)
	for _, v := range x.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("xavier value %v exceeds limit %v", v, limit)
		}
	}
	FillUniform(x, r, 2, 3)
	for _, v := range x.Data {
		if v < 2 || v >= 3 {
			t.Fatalf("uniform value %v outside [2,3)", v)
		}
	}
	FillNormal(x, r, 0.02)
	if x.MaxAbs() > 0.2 {
		t.Fatalf("normal(0.02) value too large: %v", x.MaxAbs())
	}
}
