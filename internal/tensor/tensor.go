// Package tensor implements a small dense float32 tensor engine used by the
// WeiPipe training runtime and its baselines.
//
// Tensors are row-major and always contiguous. The package favours
// predictable memory behaviour over generality: shapes are immutable after
// creation, views share storage explicitly via Slice/Reshape, and all
// compute happens in float32 with optional float16 round-tripping to emulate
// the mixed-precision storage/wire format the paper uses.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major, contiguous float32 tensor.
type Tensor struct {
	// Data holds the elements in row-major order. len(Data) == Size().
	Data []float32
	// shape holds the dimension sizes. It is never mutated after creation.
	shape []int
}

// New creates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float32, n), shape: dup(shape)}
}

// FromSlice wraps data in a tensor with the given shape. The tensor aliases
// data; it does not copy.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("tensor: FromSlice shape %v needs %d elems, got %d", shape, n, len(data)))
	}
	return &Tensor{Data: data, shape: dup(shape)}
}

// Shell returns a tensor with the given shape and no storage: Data is nil
// until its owner points it at a buffer holding exactly the shape's element
// count (nn.ParamSet.Bind does), and Size reports whatever Data holds.
func Shell(shape ...int) *Tensor {
	checkShape(shape)
	return &Tensor{shape: dup(shape)}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	bad := false
	for _, d := range shape {
		if d <= 0 {
			bad = true
		}
		n *= d
	}
	if bad {
		// Copy before formatting: handing shape itself to fmt would make
		// every caller's variadic shape argument escape to the heap.
		panic(fmt.Sprintf("tensor: non-positive dim in shape %v", dup(shape)))
	}
	return n
}

func dup(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

// Shape returns the dimension sizes. The caller must not mutate the result.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Rows returns the product of all dimensions except the last; Cols returns
// the last dimension. Together they give the canonical 2-D view used by the
// matmul kernels.
func (t *Tensor) Rows() int { return t.Size() / t.Cols() }

// Cols returns the size of the last dimension.
func (t *Tensor) Cols() int { return t.shape[len(t.shape)-1] }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.shape...)
	copy(out.Data, t.Data)
	return out
}

// CopyFrom copies src's elements into t. Shapes must have equal sizes.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Size() != src.Size() {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d != %d", t.Size(), src.Size()))
	}
	copy(t.Data, src.Data)
}

// Reshape returns a view with a new shape sharing storage. The total element
// count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{Data: t.Data, shape: dup(shape)}
}

// Row returns a view of row i of the canonical 2-D view.
func (t *Tensor) Row(i int) *Tensor {
	c := t.Cols()
	if i < 0 || i >= t.Rows() {
		panic(fmt.Sprintf("tensor: row %d out of range (%d rows)", i, t.Rows()))
	}
	return &Tensor{Data: t.Data[i*c : (i+1)*c : (i+1)*c], shape: []int{c}}
}

// SliceRows returns a view of rows [lo,hi) of the canonical 2-D view.
func (t *Tensor) SliceRows(lo, hi int) *Tensor {
	c := t.Cols()
	r := t.Rows()
	if lo < 0 || hi > r || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range (%d rows)", lo, hi, r))
	}
	return &Tensor{Data: t.Data[lo*c : hi*c : hi*c], shape: []int{hi - lo, c}}
}

// Zero sets all elements to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := t.Size()
	k := n
	if k > 8 {
		k = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:k])
}

// MaxAbs returns the largest absolute element value (0 for empty data).
// NaNs are ignored, as in the float64 formulation (NaN comparisons are
// false), but the scan stays in float32 with no conversion per element.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of all elements in float64 for accuracy.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// AllFinite reports whether every element is finite (no NaN/Inf). A float32
// is NaN or Inf exactly when its exponent bits are all ones, so one bit test
// replaces the float64 round-trip per element.
func (t *Tensor) AllFinite() bool {
	const expMask = 0x7f80_0000
	for _, v := range t.Data {
		if math.Float32bits(v)&expMask == expMask {
			return false
		}
	}
	return true
}
