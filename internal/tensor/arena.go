package tensor

import (
	"math"
	"sync"
	"sync/atomic"
)

// Arena is a scratch allocator for training hot paths. It hands out tensors
// backed by reusable buffers with get/reset semantics: allocations between
// two Resets never alias each other, and Reset recycles every buffer for the
// next round without freeing, so a steady-state training step performs no
// heap allocation once the arena has grown to the step's high-water mark.
//
// Positional reuse: the n-th allocation after a Reset reuses the n-th slot's
// buffer (grown if needed) and the same Tensor header, which is what makes
// the steady state allocation-free — a training step requests the same
// shapes in the same order every time.
//
// Reset invalidates every tensor handed out since the previous Reset; the
// caller must ensure none of them is still live. Concurrent New
// calls from multiple goroutines are safe (slot hand-out is mutex-guarded);
// Reset must not run concurrently with allocation.
type Arena struct {
	mu    sync.Mutex
	slots []*arenaSlot
	next  int
}

// arenaSlot pairs a recycled Tensor header with its backing buffer.
type arenaSlot struct {
	t   *Tensor
	buf []float32
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// New returns a zero-filled tensor with the given shape, reusing the next
// slot's buffer and header. Semantically identical to tensor.New except for
// the Reset lifetime.
func (a *Arena) New(shape ...int) *Tensor {
	t := a.Scratch(shape...)
	clear(t.Data)
	return t
}

// Scratch is New without the zero fill: the tensor holds whatever its
// recycled buffer held last. For destinations the caller overwrites in full
// before reading — the output of a store-mode kernel — which is what nearly
// every intermediate of a training step is, and where the fill was pure
// cost.
func (a *Arena) Scratch(shape ...int) *Tensor {
	n := 1
	ok := len(shape) > 0
	for _, d := range shape {
		if d <= 0 {
			ok = false
		}
		n *= d
	}
	if !ok {
		panic("tensor: Arena allocation with empty or non-positive shape")
	}
	s := a.take()
	if cap(s.buf) < n {
		s.buf = make([]float32, n)
	}
	t := s.t
	t.Data = s.buf[:n]
	t.shape = setShape(t.shape, shape)
	if arenaPoison.Load() {
		t.Fill(float32(math.NaN()))
	}
	return t
}

// arenaPoison, when set, makes Scratch hand out NaN-filled tensors.
var arenaPoison atomic.Bool

// SetArenaPoison makes every Arena.Scratch tensor come back filled with NaN
// rather than stale data, so a caller that reads one before writing it
// poisons its results instead of passing by luck. Test use only: it is how
// the suites prove every Scratch site overwrites its tensor.
func SetArenaPoison(on bool) { arenaPoison.Store(on) }

// Reset recycles every slot. All tensors handed out since the previous Reset
// become invalid: their storage will be handed out again.
func (a *Arena) Reset() {
	a.mu.Lock()
	a.next = 0
	a.mu.Unlock()
}

// Slots reports how many slots the arena has grown to (its high-water mark).
func (a *Arena) Slots() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.slots)
}

// Bytes reports the heap the arena's buffers hold: what the largest round of
// allocations between two Resets has cost so far.
func (a *Arena) Bytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.slots {
		n += 4 * cap(s.buf)
	}
	return n
}

// take claims the next slot, growing the slot list if needed.
func (a *Arena) take() *arenaSlot {
	a.mu.Lock()
	if a.next == len(a.slots) {
		a.slots = append(a.slots, &arenaSlot{t: &Tensor{}})
	}
	s := a.slots[a.next]
	a.next++
	a.mu.Unlock()
	return s
}

// setShape copies shape into dst, reusing dst's backing array when possible
// (so the incoming variadic slice never escapes to the heap).
func setShape(dst, shape []int) []int {
	if cap(dst) < len(shape) {
		dst = make([]int, len(shape))
	}
	dst = dst[:len(shape)]
	copy(dst, shape)
	return dst
}
