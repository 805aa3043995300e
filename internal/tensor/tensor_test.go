package tensor

import (
	"math"
	"testing"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	if x.Rows() != 6 || x.Cols() != 4 {
		t.Fatalf("Rows/Cols = %d/%d, want 6/4", x.Rows(), x.Cols())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if x.Data[5] != 7 {
		t.Fatalf("row-major offset wrong: %v", x.Data)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	_ = x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(4)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	x.Data[0] = 5
	if d[0] != 5 {
		t.Fatal("FromSlice must alias")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 3
	if x.Data[0] != 3 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestRowAndSliceRows(t *testing.T) {
	x := New(3, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	r := x.Row(1)
	if r.Data[0] != 2 || r.Data[1] != 3 {
		t.Fatalf("Row(1) = %v", r.Data)
	}
	s := x.SliceRows(1, 3)
	if s.Rows() != 2 || s.Data[0] != 2 || s.Data[3] != 5 {
		t.Fatalf("SliceRows = %v shape %v", s.Data, s.Shape())
	}
	// views alias
	s.Data[0] = 42
	if x.At(1, 0) != 42 {
		t.Fatal("SliceRows must alias parent")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	dst := New(3)
	Add(dst, a, b)
	want := []float32{5, 7, 9}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("Add = %v", dst.Data)
		}
	}
	Sub(dst, b, a)
	for i, w := range []float32{3, 3, 3} {
		if dst.Data[i] != w {
			t.Fatalf("Sub = %v", dst.Data)
		}
	}
	Mul(dst, a, b)
	for i, w := range []float32{4, 10, 18} {
		if dst.Data[i] != w {
			t.Fatalf("Mul = %v", dst.Data)
		}
	}
	Scale(dst, a, 2)
	for i, w := range []float32{2, 4, 6} {
		if dst.Data[i] != w {
			t.Fatalf("Scale = %v", dst.Data)
		}
	}
	Axpy(dst, 10, a) // dst = 2a + 10a = 12a
	for i, w := range []float32{12, 24, 36} {
		if dst.Data[i] != w {
			t.Fatalf("Axpy = %v", dst.Data)
		}
	}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestAddAliasSafe(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	Add(a, a, a)
	if a.Data[0] != 2 || a.Data[1] != 4 {
		t.Fatalf("aliased Add = %v", a.Data)
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	y := New(2, 3)
	SoftmaxRows(y, x)
	var sum float64
	for _, v := range y.Data[:3] {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("row0 softmax sum = %v", sum)
	}
	// huge-but-equal logits must not overflow
	for _, v := range y.Data[3:] {
		if math.Abs(float64(v)-1.0/3) > 1e-6 {
			t.Fatalf("row1 softmax = %v", y.Data[3:])
		}
	}
	if y.Data[2] <= y.Data[1] || y.Data[1] <= y.Data[0] {
		t.Fatalf("softmax not monotone: %v", y.Data[:3])
	}
}

func TestSiLUAndBackward(t *testing.T) {
	x := FromSlice([]float32{-2, 0, 2}, 3)
	y := New(3)
	SiLU(y, x)
	if y.Data[1] != 0 {
		t.Fatalf("silu(0) = %v", y.Data[1])
	}
	if y.Data[2] <= 0 || y.Data[0] >= 0 {
		t.Fatalf("silu signs wrong: %v", y.Data)
	}
	// finite difference
	dy := FromSlice([]float32{1, 1, 1}, 3)
	dx := New(3)
	SiLUBackward(dx, x, dy)
	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		yp := New(3)
		SiLU(yp, x)
		x.Data[i] = orig - eps
		ym := New(3)
		SiLU(ym, x)
		x.Data[i] = orig
		fd := (yp.Data[i] - ym.Data[i]) / (2 * eps)
		if math.Abs(float64(fd-dx.Data[i])) > 1e-3 {
			t.Fatalf("silu grad[%d] = %v fd %v", i, dx.Data[i], fd)
		}
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := New(3, 2)
	Transpose(y, x)
	want := []float32{1, 4, 2, 5, 3, 6}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("Transpose = %v", y.Data)
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 2}, 3)
	if x.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if !x.AllFinite() {
		t.Fatal("AllFinite false for finite tensor")
	}
	x.Data[1] = float32(math.NaN())
	if x.AllFinite() {
		t.Fatal("AllFinite true for NaN")
	}
	x.Data[1] = float32(math.Inf(1))
	if x.AllFinite() {
		t.Fatal("AllFinite true for Inf")
	}
}

func TestZeroFillCopy(t *testing.T) {
	x := New(3)
	x.Fill(2)
	y := New(3)
	y.CopyFrom(x)
	if y.Data[2] != 2 {
		t.Fatalf("CopyFrom = %v", y.Data)
	}
	x.Zero()
	if x.Sum() != 0 || y.Data[0] != 2 {
		t.Fatal("Zero must not affect copies")
	}
}
