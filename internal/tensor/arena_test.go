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
	second := a.New(4, 4) // smaller: must reuse the same backing array
	if &second.Data[0] != p0 {
		t.Fatalf("Reset did not recycle the first slot's buffer")
	}
	if got := second.Shape(); got[0] != 4 || got[1] != 4 {
		t.Fatalf("recycled tensor has shape %v, want [4 4]", got)
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
	s := a.Scratch(2, 4)
	if got := s.Shape(); got[0] != 2 || got[1] != 4 || len(s.Data) != 8 {
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
