package nn

import (
	"math"
	"testing"

	"weipipe/internal/tensor"
)

func bindTestBlock(seed uint64) *Block {
	return NewBlock("block", 8, 2, 12, NewRopeTable(5, 4), tensor.NewRNG(seed))
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// Bind lays the tensors over the flat vector in the order SetFlat copies it
// in and FlattenInto copies it out — reading and writing — and a forward
// pass out of the bound buffer is the forward pass of the copied weights,
// bit for bit.
func TestBindWireOrderMatchesSetFlat(t *testing.T) {
	copied, bound := bindTestBlock(1), bindTestBlock(2)
	flat := bindTestBlock(3).Params().Flatten()
	copied.Params().SetFlat(flat)
	bound.Params().Bind(flat)

	for _, name := range copied.Params().Names() {
		want, got := copied.Params().Get(name).Data, bound.Params().Get(name).Data
		if len(got) != len(want) {
			t.Fatalf("%s: bound to %d elements, SetFlat fills %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: bound view reads %v, SetFlat copied %v", name, i, got[i], want[i])
			}
		}
	}

	x := tensor.New(2*5, 8)
	tensor.FillNormal(x, tensor.NewRNG(4), 1)
	want := copied.Forward(x, NewCache(2, 5))
	got := bound.Forward(x, NewCache(2, 5))
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("forward out of the bound buffer differs at %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}

	// Writes through the tensors land where FlattenInto would put them.
	for k, name := range bound.Params().Names() {
		bound.Params().Get(name).Fill(float32(k + 1))
	}
	out := make([]float32, len(flat))
	bound.Params().FlattenInto(out)
	for i := range flat {
		if flat[i] != out[i] {
			t.Fatalf("flat[%d] = %v after writing through the view, FlattenInto says %v", i, flat[i], out[i])
		}
	}
}

func TestBindLengthMismatchPanics(t *testing.T) {
	p := bindTestBlock(1).Params()
	before := p.Get("attn.wq").Data
	mustPanic(t, "Bind of a short buffer", func() { p.Bind(make([]float32, p.Size()-1)) })
	mustPanic(t, "Bind of a long buffer", func() { p.Bind(make([]float32, p.Size()+1)) })
	if &p.Get("attn.wq").Data[0] != &before[0] {
		t.Error("a rejected Bind moved a tensor")
	}
}

// Unbind puts every tensor back on its own storage, untouched by whatever
// happened to the buffers in between, and binding again while bound does not
// forget where home is.
func TestUnbindRestoresHomeStorage(t *testing.T) {
	p := bindTestBlock(1).Params()
	home := make(map[string][]float32)
	want := p.Flatten()
	for _, name := range p.Names() {
		home[name] = p.Get(name).Data
	}
	p.Unbind() // unbound: a no-op

	first, second := make([]float32, p.Size()), make([]float32, p.Size())
	p.Bind(first)
	p.Get("ffn.w1").Fill(7)
	p.Bind(second)
	p.Get("ffn.w2").Fill(9)
	p.Unbind()
	for _, name := range p.Names() {
		if got := p.Get(name).Data; &got[0] != &home[name][0] || len(got) != len(home[name]) {
			t.Fatalf("%s is not back on its own storage", name)
		}
	}
	got := p.Flatten()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("home storage changed at %d while bound elsewhere: %v != %v", i, got[i], want[i])
		}
	}
	// Each write went to the buffer bound at the time, and only there.
	count := func(buf []float32, v float32) (n int) {
		for _, x := range buf {
			if x == v {
				n++
			}
		}
		return n
	}
	if count(first, 7) != 8*12 || count(first, 9) != 0 || count(second, 9) != 12*8 || count(second, 7) != 0 {
		t.Fatal("a write through a bound tensor landed in the wrong buffer")
	}
}

// Each bound slice ends where its tensor ends: a kernel that re-slices past
// its tensor faults instead of reading its neighbour in the chunk.
func TestBindClampsCapacity(t *testing.T) {
	p := bindTestBlock(1).Params()
	p.Bind(make([]float32, p.Size()))
	for _, name := range p.Names() {
		d := p.Get(name).Data
		if cap(d) != len(d) {
			t.Errorf("%s: capacity %d reaches past its %d elements", name, cap(d), len(d))
		}
	}
	d := p.Get("norm1.g").Data
	mustPanic(t, "re-slicing past a bound tensor", func() { _ = d[:len(d)+1] })
}

// A storage-less set has the layout of its source and holds nothing until
// it is bound, and nothing again once unbound.
func TestNewUnboundHoldsNoStorage(t *testing.T) {
	src := bindTestBlock(1).Params()
	g := src.NewUnbound()
	if g.Size() != src.Size() || len(g.Names()) != len(src.Names()) {
		t.Fatalf("layout %d/%d, want %d/%d", g.Size(), len(g.Names()), src.Size(), len(src.Names()))
	}
	for _, name := range g.Names() {
		if g.Get(name).Data != nil {
			t.Fatalf("%s has storage before Bind", name)
		}
	}
	flat := make([]float32, g.Size())
	g.Bind(flat)
	g.Get("attn.wo").Fill(3)
	g.Unbind()
	if g.Get("attn.wo").Data != nil {
		t.Fatal("Unbind left a storage-less tensor pointing at the buffer")
	}
	var sum float32
	for _, v := range flat {
		sum += v
	}
	if want := float32(3 * 8 * 8); sum != want {
		t.Fatalf("buffer holds %v after filling wo through the view, want %v", sum, want)
	}
}

// A shell — a set with no storage (NewUnbound), outside a Bind — has nothing
// to copy in or out, so each flat copy panics instead of moving nothing: a
// silent no-op is how a load into a shell would vanish. Once bound, the same
// calls go through the buffer.
func TestFlatCopiesOfAShellPanic(t *testing.T) {
	copies := map[string]func(p *ParamSet, flat []float32){
		"SetFlat":      (*ParamSet).SetFlat,
		"FlattenInto":  (*ParamSet).FlattenInto,
		"AddFlat":      (*ParamSet).AddFlat,
		"FlattenRange": func(p *ParamSet, flat []float32) { p.FlattenRange(0, flat[:1]) },
	}
	for name, copyFlat := range copies {
		t.Run(name, func(t *testing.T) {
			g := bindTestBlock(1).Params().NewUnbound()
			flat := make([]float32, g.Size())
			mustPanic(t, name+" on a shell", func() { copyFlat(g, flat) })

			buf := make([]float32, g.Size())
			g.Bind(buf)
			src, dst := flat, buf // into the set
			if name == "FlattenInto" || name == "FlattenRange" {
				src, dst = buf, flat
			}
			src[0] = 5
			copyFlat(g, flat)
			if dst[0] != 5 {
				t.Fatalf("bound: %s moved %v, want 5", name, dst[0])
			}
		})
	}
}

// A module built without an rng is a shell of the one built with it: the
// same names and shapes, no storage, and bound to the built one's weights it
// computes the same forward, bit for bit.
func TestShellModuleMatchesBuiltLayout(t *testing.T) {
	rope := NewRopeTable(5, 4)
	built := NewBlock("block", 8, 2, 12, rope, tensor.NewRNG(1))
	shell := NewBlock("block", 8, 2, 12, rope, nil)
	bp, sp := built.Params(), shell.Params()
	if sp.Size() != bp.Size() || len(sp.Names()) != len(bp.Names()) {
		t.Fatalf("shell layout %d/%d, built %d/%d", sp.Size(), len(sp.Names()), bp.Size(), len(bp.Names()))
	}
	for i, name := range sp.Names() {
		if name != bp.Names()[i] || !sp.Get(name).SameShape(bp.Get(name)) {
			t.Fatalf("param %d: shell %q %v, built %q %v", i, name, sp.Get(name).Shape(), bp.Names()[i], bp.Get(bp.Names()[i]).Shape())
		}
		if sp.Get(name).Data != nil {
			t.Fatalf("%s: the shell has storage", name)
		}
	}
	sp.Bind(bp.Flatten())
	x := tensor.New(2*5, 8)
	tensor.FillNormal(x, tensor.NewRNG(4), 1)
	want := built.Forward(x, NewCache(2, 5))
	got := shell.Forward(x, NewCache(2, 5))
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("bound shell's forward differs at %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

// FlattenRange is FlattenInto's window: any [off, off+n) of the set, across
// tensor boundaries, reads what the full flattening holds there.
func TestFlattenRangeIsAWindowOfFlatten(t *testing.T) {
	p := bindTestBlock(1).Params()
	full := p.Flatten()
	for _, w := range [][2]int{{0, 0}, {0, 1}, {3, 40}, {7, p.Size()}, {p.Size() - 9, p.Size()}, {0, p.Size()}} {
		got := make([]float32, w[1]-w[0])
		p.FlattenRange(w[0], got)
		for i, v := range got {
			if v != full[w[0]+i] {
				t.Fatalf("window %v: element %d reads %v, Flatten has %v", w, i, v, full[w[0]+i])
			}
		}
	}
	mustPanic(t, "a window past the end", func() { p.FlattenRange(1, make([]float32, p.Size())) })
}
