package tensor

import (
	"math"
	"sync"
	"sync/atomic"
)

// Arena is a scratch allocator for training hot paths. A tensor it hands out
// lives until it is given back: by Free, the moment its last reader is done
// with it, or by Reset, which gives back whatever the arena still holds. The
// buffer then goes onto its Store's free list for buffers of exactly its
// length, and the next request for that length takes it from there. A
// training step requests the same lengths every time, so once the store has
// grown to the step's peak of simultaneously live buffers a warm step
// performs no heap allocation.
//
// Several arenas may draw from one Store (Store.NewArena). A pipeline rank
// gives each in-flight microbatch its own arena, so one Reset ends one
// microbatch, while a buffer any of them gives back feeds all of them.
//
// Tensors live at the same time never alias. Free and Reset invalidate the
// tensors they give back: their storage will be handed out again. Calls on
// the arenas of one store may come from several goroutines (the store's
// mutex guards every hand-out and give-back).
type Arena struct {
	st        *Store
	live      []*arenaSlot // the slots handed out and not yet given back
	liveBytes int
}

// Store is the pool of idle buffers that one or more arenas draw from, kept
// as free lists by exact length, so a hand-out and a give-back are each one
// map lookup and a stack operation.
type Store struct {
	mu    sync.Mutex
	idle  map[int]*freeList
	slots int // buffers made, live or idle
	bytes int
}

// freeList is the stack of idle slots of one length.
type freeList struct{ slots []*arenaSlot }

// arenaSlot pairs a recycled Tensor header with its buffer. While live it
// records the arena holding it and its index in that arena's live list.
type arenaSlot struct {
	t     *Tensor
	buf   []float32
	owner *Arena // nil while idle
	at    int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{idle: make(map[int]*freeList)} }

// NewArena returns an empty arena drawing from s.
func (s *Store) NewArena() *Arena { return &Arena{st: s} }

// NewArena returns an empty arena with a store of its own.
func NewArena() *Arena { return NewStore().NewArena() }

// New returns a zero-filled tensor with the given shape. Semantically
// identical to tensor.New except for the lifetime.
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
	poison := arenaPoison.Load()
	st := a.st
	st.mu.Lock()
	fl := st.idle[n]
	var s *arenaSlot
	if fl != nil && len(fl.slots) > 0 {
		last := len(fl.slots) - 1
		s = fl.slots[last]
		fl.slots[last] = nil
		fl.slots = fl.slots[:last]
	} else {
		s = &arenaSlot{buf: make([]float32, n)}
		st.slots++
		st.bytes += 4 * n
	}
	// Under poison every hand-out gets a fresh header, so a stale one — kept
	// past its Free and the slot's reuse — is never live again and freeing it
	// panics instead of freeing the slot's new tenant.
	if s.t == nil || poison {
		s.t = &Tensor{slot: s}
	}
	s.owner, s.at = a, len(a.live)
	a.live = append(a.live, s)
	a.liveBytes += 4 * n
	st.mu.Unlock()

	t := s.t
	t.Data = s.buf
	t.shape = setShape(t.shape, shape)
	if poison {
		t.Fill(float32(math.NaN()))
	}
	return t
}

// Free gives t back: its buffer is idle from here on and the next request
// for its length may take it. t must be live in this arena — handed out by
// it and not yet given back — or Free panics. (Without SetArenaPoison a
// stale header whose slot has been handed out again looks live; under
// poison every hand-out has a fresh header, so that case panics too.)
func (a *Arena) Free(t *Tensor) {
	st := a.st
	st.mu.Lock()
	if !a.holds(t) {
		st.mu.Unlock()
		panic("tensor: Arena.Free of a tensor not live in this arena")
	}
	s := t.slot
	last := a.live[len(a.live)-1]
	a.live[s.at], last.at = last, s.at
	a.live[len(a.live)-1] = nil
	a.live = a.live[:len(a.live)-1]
	a.liveBytes -= 4 * len(s.buf)
	st.park(s)
	st.mu.Unlock()
}

// Owns reports whether t is live in this arena: handed out by it and not
// yet given back, so Free would take it. A tensor wrapping storage from
// elsewhere (FromSlice, New) is never owned.
func (a *Arena) Owns(t *Tensor) bool {
	a.st.mu.Lock()
	defer a.st.mu.Unlock()
	return a.holds(t)
}

// holds is Owns for a caller holding the store's mutex.
func (a *Arena) holds(t *Tensor) bool {
	s := t.slot
	return s != nil && s.owner == a && s.t == t
}

// Reset gives back every tensor the arena still holds. All of them become
// invalid: their storage will be handed out again.
func (a *Arena) Reset() {
	st := a.st
	st.mu.Lock()
	for i, s := range a.live {
		st.park(s)
		a.live[i] = nil
	}
	a.live = a.live[:0]
	a.liveBytes = 0
	st.mu.Unlock()
}

// park files a slot that has just stopped being live. Callers hold st.mu.
func (st *Store) park(s *arenaSlot) {
	s.owner = nil
	if arenaPoison.Load() {
		nan := float32(math.NaN())
		for i := range s.buf {
			s.buf[i] = nan
		}
	}
	fl := st.idle[len(s.buf)]
	if fl == nil {
		fl = &freeList{}
		st.idle[len(s.buf)] = fl
	}
	fl.slots = append(fl.slots, s)
}

// arenaPoison, when set, makes Scratch hand out NaN-filled tensors and
// Free/Reset NaN-fill what they give back.
var arenaPoison atomic.Bool

// SetArenaPoison makes every Arena.Scratch tensor come back filled with NaN
// rather than stale data, so a caller that reads one before writing it
// poisons its results instead of passing by luck; every buffer Free or Reset
// gives back is NaN-filled too, so a read after the give-back poisons them
// the same way; and every hand-out gets a fresh Tensor header, so freeing a
// stale one panics. Test use only: it is how the suites prove every Scratch
// site overwrites its tensor and no module reads what it has freed.
func SetArenaPoison(on bool) { arenaPoison.Store(on) }

// Slots reports how many buffers the arena's store has made, live or idle:
// its high-water mark.
func (a *Arena) Slots() int { return a.st.Slots() }

// Bytes reports the heap the arena's store holds, live or idle: what the
// largest set of simultaneously live buffers has cost so far.
func (a *Arena) Bytes() int { return a.st.Bytes() }

// LiveBytes reports the bytes of the tensors live in this arena: what its
// microbatch holds right now.
func (a *Arena) LiveBytes() int {
	a.st.mu.Lock()
	defer a.st.mu.Unlock()
	return a.liveBytes
}

// Slots reports how many buffers the store has made, live or idle.
func (s *Store) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots
}

// Bytes reports the heap the store's buffers hold, live or idle.
func (s *Store) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
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
