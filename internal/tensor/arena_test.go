package tensor

import (
	"sync"
	"testing"
)

// Allocations between two Resets must never alias: writing through one must
// not show through another.
func TestArenaNoAliasingBetweenResets(t *testing.T) {
	a := NewArena()
	ts := make([]*Tensor, 8)
	for i := range ts {
		ts[i] = a.New(4, 4)
	}
	for i, x := range ts {
		x.Fill(float32(i + 1))
	}
	for i, x := range ts {
		for _, v := range x.Data {
			if v != float32(i+1) {
				t.Fatalf("tensor %d clobbered: got %v", i, v)
			}
		}
	}
	// Overlap check on the raw storage.
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if &ts[i].Data[0] == &ts[j].Data[0] {
				t.Fatalf("tensors %d and %d share storage", i, j)
			}
		}
	}
}

// After Reset the arena must hand out the same buffers again (that is the
// whole point), zero-filled, honouring the new shapes.
func TestArenaResetReusesBuffers(t *testing.T) {
	a := NewArena()
	first := a.New(8, 8)
	first.Fill(3)
	p0 := &first.Data[0]

	a.Reset()
	second := a.New(4, 16) // same length, new shape: must reuse the same buffer
	if &second.Data[0] != p0 {
		t.Fatalf("Reset did not recycle the first slot's buffer")
	}
	if got := second.Shape(); got[0] != 4 || got[1] != 16 {
		t.Fatalf("recycled tensor has shape %v, want [4 16]", got)
	}
	for _, v := range second.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed: %v", v)
		}
	}
	if a.Slots() != 1 {
		t.Fatalf("arena grew to %d slots, want 1", a.Slots())
	}
}

// Scratch recycles like New but leaves the buffer as it was; under
// SetArenaPoison it comes back all NaN instead, fresh buffers included.
func TestArenaScratchIsUnclearedOrPoisoned(t *testing.T) {
	a := NewArena()
	a.New(4, 4).Fill(3)
	a.Reset()
	s := a.Scratch(2, 8)
	if got := s.Shape(); got[0] != 2 || got[1] != 8 || len(s.Data) != 16 {
		t.Fatalf("scratch tensor has shape %v, len %d", got, len(s.Data))
	}
	for _, v := range s.Data {
		if v != 3 {
			t.Fatalf("Scratch touched the recycled buffer: %v", v)
		}
	}
	a.Reset()
	for _, v := range a.New(4, 4).Data {
		if v != 0 {
			t.Fatalf("New after Scratch not zeroed: %v", v)
		}
	}

	SetArenaPoison(true)
	defer SetArenaPoison(false)
	a.Reset()
	for _, x := range []*Tensor{a.Scratch(4, 4), a.Scratch(5)} {
		for _, v := range x.Data {
			if v == v {
				t.Fatalf("poisoned Scratch holds %v, want NaN", v)
			}
		}
	}
	for _, v := range a.New(3).Data {
		if v != 0 {
			t.Fatalf("New under poison not zeroed: %v", v)
		}
	}
}

// Concurrent allocation from one arena must be safe (slot hand-out is
// mutex-guarded) and still non-aliasing. Run with -race.
func TestArenaConcurrentAllocation(t *testing.T) {
	a := NewArena()
	const workers, per = 8, 50
	out := make([][]*Tensor, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x := a.New(16)
				x.Fill(float32(w))
				out[w] = append(out[w], x)
			}
		}(w)
	}
	wg.Wait()
	for w, ts := range out {
		for _, x := range ts {
			for _, v := range x.Data {
				if v != float32(w) {
					t.Fatalf("worker %d saw cross-worker write: %v", w, v)
				}
			}
		}
	}
	if got := a.Slots(); got != workers*per {
		t.Fatalf("arena has %d slots, want %d", got, workers*per)
	}
}

func TestArenaNewPanicsOnBadShape(t *testing.T) {
	a := NewArena()
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Arena.New(%v) did not panic", shape)
				}
			}()
			a.New(shape...)
		}()
	}
}

// Steady-state arena allocation must not touch the heap.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	a := NewArena()
	// Warm up the high-water mark.
	for i := 0; i < 4; i++ {
		a.New(32, 32)
	}
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			a.New(32, 32)
		}
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena round allocates %v times, want 0", allocs)
	}
}

// A freed buffer is the next one handed out for its exact length, and only
// for that length; LiveBytes follows every hand-out and give-back.
func TestArenaFreeReusesExactLength(t *testing.T) {
	a := NewArena()
	x := a.Scratch(4, 4)
	p0 := &x.Data[0]
	keep := a.Scratch(8)
	if got := a.LiveBytes(); got != 4*(16+8) {
		t.Fatalf("LiveBytes = %d, want %d", got, 4*(16+8))
	}
	a.Free(x)
	if got := a.LiveBytes(); got != 4*8 {
		t.Fatalf("LiveBytes after Free = %d, want %d", got, 4*8)
	}
	if y := a.Scratch(2, 4); &y.Data[0] == p0 {
		t.Fatal("a buffer of length 16 served a request for 8")
	}
	if z := a.Scratch(16); &z.Data[0] != p0 {
		t.Fatal("Free did not hand the buffer to the next request of its length")
	}
	if a.Slots() != 3 {
		t.Fatalf("store made %d buffers, want 3", a.Slots())
	}
	_ = keep
	a.Reset()
	if a.LiveBytes() != 0 {
		t.Fatalf("LiveBytes after Reset = %d, want 0", a.LiveBytes())
	}
}

// An arena owns exactly the tensors live in it: not a heap tensor, not a
// wrapped slice, not a sibling arena's, not one it has given back; and its
// store's Bytes counts every buffer made, live or idle.
func TestArenaOwnsOnlyItsLiveTensors(t *testing.T) {
	st := NewStore()
	a, b := st.NewArena(), st.NewArena()
	x, y := a.Scratch(4), b.Scratch(6)
	if !a.Owns(x) || a.Owns(y) || !b.Owns(y) {
		t.Fatal("an arena must own its own live tensors and no sibling's")
	}
	if a.Owns(New(4)) || a.Owns(FromSlice(make([]float32, 4), 4)) {
		t.Fatal("an arena must not own a tensor whose storage came from elsewhere")
	}
	a.Free(x)
	if a.Owns(x) {
		t.Fatal("an arena must not own a tensor it gave back")
	}
	if got := st.Bytes(); got != 4*(4+6) || a.Bytes() != got {
		t.Fatalf("store Bytes = %d, arena Bytes = %d, want %d", got, a.Bytes(), 4*(4+6))
	}
}

// Arenas of one store share its free lists: what one gives back the other
// takes, and one arena's Reset leaves the other's tensors live.
func TestArenaStoreSharedAcrossArenas(t *testing.T) {
	st := NewStore()
	a, b := st.NewArena(), st.NewArena()
	x := a.Scratch(32)
	p0 := &x.Data[0]
	held := b.New(32)
	held.Fill(5)
	a.Reset()
	if y := b.Scratch(32); &y.Data[0] != p0 {
		t.Fatal("b did not take the buffer a gave back")
	}
	for _, v := range held.Data {
		if v != 5 {
			t.Fatalf("a's Reset touched b's live tensor: %v", v)
		}
	}
	if st.Slots() != 2 || a.Slots() != 2 || b.Bytes() != 4*64 {
		t.Fatalf("store made %d buffers (%d bytes), want 2 (256)", st.Slots(), b.Bytes())
	}
	if a.LiveBytes() != 0 || b.LiveBytes() != 4*64 {
		t.Fatalf("LiveBytes a=%d b=%d, want 0 and 256", a.LiveBytes(), b.LiveBytes())
	}
}

// Under poison a buffer is NaN from the moment Free or Reset gives it back,
// so a reader that kept a tensor past its give-back reads NaN.
func TestArenaPoisonOnGiveBack(t *testing.T) {
	SetArenaPoison(true)
	defer SetArenaPoison(false)
	a := NewArena()
	x, y := a.New(8), a.New(8)
	a.Free(x)
	a.Reset()
	for _, d := range [][]float32{x.Data, y.Data} {
		for _, v := range d {
			if v == v {
				t.Fatalf("given-back buffer holds %v, want NaN", v)
			}
		}
	}
}

// Free panics on anything not live in the arena: a double free, a heap
// tensor, a view, another arena's tensor, and — under poison — a stale
// header whose slot has been handed out again.
func TestArenaFreePanicsOnDeadTensor(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Free did not panic", name)
			}
		}()
		fn()
	}
	st := NewStore()
	a, b := st.NewArena(), st.NewArena()
	x := a.Scratch(4)
	a.Free(x)
	mustPanic("double free", func() { a.Free(x) })
	mustPanic("heap tensor", func() { a.Free(New(4)) })
	y := a.Scratch(2, 2)
	mustPanic("view", func() { a.Free(y.Reshape(4)) })
	mustPanic("other arena", func() { b.Free(y) })
	a.Free(y)

	SetArenaPoison(true)
	defer SetArenaPoison(false)
	stale := a.Scratch(4)
	a.Free(stale)
	fresh := a.Scratch(4)
	if &fresh.Data[0] != &stale.Data[0] {
		t.Fatal("the slot was not reused")
	}
	mustPanic("stale header", func() { a.Free(stale) })
	a.Free(fresh)
}

// Hand-outs and give-backs interleaved in a fixed order reach a steady
// state that never touches the heap.
func TestArenaFreeSteadyStateZeroAlloc(t *testing.T) {
	a := NewArena()
	round := func() {
		x := a.Scratch(32, 32)
		y := a.Scratch(64)
		a.Free(x)
		a.Scratch(32, 32)
		a.Free(y)
		a.Reset()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state round with frees allocates %v times, want 0", allocs)
	}
}

// Arenas of one store used from several goroutines at once — hand-outs,
// frees and resets interleaved — never alias a live tensor. Run with -race.
func TestArenaStoreConcurrentArenas(t *testing.T) {
	st := NewStore()
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := st.NewArena()
			for i := 0; i < rounds; i++ {
				x, y := a.Scratch(16), a.Scratch(16)
				x.Fill(float32(w))
				y.Fill(float32(-w))
				a.Free(x)
				for _, v := range y.Data {
					if v != float32(-w) {
						t.Errorf("worker %d saw a live tensor overwritten: %v", w, v)
						return
					}
				}
				a.Reset()
			}
		}(w)
	}
	wg.Wait()
	if got := st.Slots(); got > 2*workers {
		t.Fatalf("store made %d buffers for %d workers holding 2 each", got, workers)
	}
}
