package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// F32Bytes must be checkptr-clean (the race job enforces it) on the shapes
// the transports and the checkpoint writer pass: empty, exactly-full,
// sub-slices, and arena-backed tensors.
func TestF32BytesViews(t *testing.T) {
	if b := F32Bytes(nil); b != nil {
		t.Fatalf("nil slice viewed as %d bytes", len(b))
	}
	if b := F32Bytes(make([]float32, 0, 8)); b != nil {
		t.Fatalf("empty slice viewed as %d bytes", len(b))
	}
	arena := NewArena()
	at := arena.New(3, 5)
	backing := make([]float32, 16)
	for _, x := range [][]float32{
		make([]float32, 1),
		backing,       // len == cap
		backing[3:7],  // interior sub-slice
		backing[15:],  // last element
		backing[:0:0], // empty, zero cap
		at.Data,       // arena-backed
		at.Data[4:11:11],
	} {
		for i := range x {
			x[i] = float32(i) - 2.5
		}
		b := F32Bytes(x)
		if len(b) != 4*len(x) || cap(b) != len(b) {
			t.Fatalf("view of %d floats has len %d cap %d", len(x), len(b), cap(b))
		}
		for i, v := range x {
			if got := math.Float32frombits(binary.NativeEndian.Uint32(b[4*i:])); got != v {
				t.Fatalf("view[%d] = %v, want %v", i, got, v)
			}
		}
		if len(b) > 0 {
			// The view aliases: a write through it lands in x.
			binary.NativeEndian.PutUint32(b, math.Float32bits(42))
			if x[0] != 42 {
				t.Fatalf("write through the view did not reach the slice")
			}
		}
	}
}

// On every host the little-endian image equals the per-element encoding,
// and F32FromLE undoes it after a raw read.
func TestF32LERoundTrip(t *testing.T) {
	x := []float32{0, -1.25, 3e9, 1e-30, float32(math.Inf(-1)), float32(math.Pi), 7}
	want := make([]byte, 4*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(want[4*i:], math.Float32bits(v))
	}
	if got := F32LE(x); !bytes.Equal(got, want) {
		t.Fatalf("F32LE = %x, want %x", got, want)
	}
	y := make([]float32, len(x))
	copy(F32Bytes(y), want)
	F32FromLE(y)
	for i := range x {
		if math.Float32bits(y[i]) != math.Float32bits(x[i]) {
			t.Fatalf("round trip [%d] = %v, want %v", i, y[i], x[i])
		}
	}
}

// swap32 is the whole of the big-endian branch, and the only coverage it
// gets on little-endian CI hardware.
func TestSwap32(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	orig := append([]byte(nil), b...)
	swap32(b)
	if want := []byte{4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9}; !bytes.Equal(b, want) {
		t.Fatalf("swap32 = %v, want %v", b, want)
	}
	swap32(b)
	if !bytes.Equal(b, orig) {
		t.Fatalf("swap32 twice = %v, want %v", b, orig)
	}
	swap32(nil)
	// Swapping a word is converting it between byte orders.
	w := make([]byte, 4)
	binary.BigEndian.PutUint32(w, 0xdeadbeef)
	swap32(w)
	if got := binary.LittleEndian.Uint32(w); got != 0xdeadbeef {
		t.Fatalf("swapped big-endian word reads %#x little-endian", got)
	}
}

// The in-place widen must equal UnpackBF16LE for every length, including
// the ones where the last words overlap their own destination.
func TestWidenBF16LEMatchesUnpack(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 1025} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(i)*1.37 - 100
		}
		packed := make([]byte, 2*n)
		PackBF16LE(packed, src)
		want := make([]float32, n)
		UnpackBF16LE(want, packed)

		got := make([]float32, n)
		copy(F32Bytes(got)[2*n:], packed)
		WidenBF16LE(got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: widen[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}
