package nn

import (
	"fmt"
	"runtime"
	"testing"

	"weipipe/internal/tensor"
)

// forEachAllocShape runs fn at the sequence lengths of the zero-alloc tests:
// S = 8 keeps every kernel below the parallel threshold (inline dispatch),
// S = 128 puts the matmuls and the attention kernel on the worker pool
// (GOMAXPROCS is raised so the pool path exists on a one-CPU host).
func forEachAllocShape(t *testing.T, fn func(t *testing.T, s int)) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, s := range []int{8, 128} {
		t.Run(fmt.Sprintf("S%d", s), func(t *testing.T) { fn(t, s) })
	}
}

// Steady-state Block passes with an arena-backed cache must not allocate:
// the first iterations grow the arena to its high-water mark and build the
// sub-cache tree, after which each round only reuses them.
func TestBlockForwardSteadyStateZeroAlloc(t *testing.T) {
	forEachAllocShape(t, testBlockForwardZeroAlloc)
}

func testBlockForwardZeroAlloc(t *testing.T, s int) {
	rng := tensor.NewRNG(11)
	const h, heads, f = 32, 2, 64
	rope := NewRopeTable(s, h/heads)
	blk := NewBlock("b", h, heads, f, rope, rng)
	x := tensor.New(s, h)
	tensor.FillUniform(x, rng, -1, 1)

	arena := tensor.NewArena()
	cache := NewCache(1, s)
	cache.Arena = arena

	// Warm up: arena growth, sub-cache creation, stash-map sizing.
	for i := 0; i < 3; i++ {
		arena.Reset()
		blk.Forward(x, cache)
	}

	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		blk.Forward(x, cache)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Block.Forward allocates %v times per run, want 0", allocs)
	}
}

// The full fwd + B + W round must also be allocation-free once the gradient
// sub-views are memoized.
func TestBlockTrainStepSteadyStateAllocBound(t *testing.T) {
	forEachAllocShape(t, testBlockTrainStepZeroAlloc)
}

func testBlockTrainStepZeroAlloc(t *testing.T, s int) {
	rng := tensor.NewRNG(13)
	const h, heads, f = 32, 2, 64
	rope := NewRopeTable(s, h/heads)
	blk := NewBlock("b", h, heads, f, rope, rng)
	x := tensor.New(s, h)
	tensor.FillUniform(x, rng, -1, 1)
	dy := tensor.New(s, h)
	dy.Fill(0.01)
	grads := blk.Params().NewLike()

	arena := tensor.NewArena()
	cache := NewCache(1, s)
	cache.Arena = arena

	for i := 0; i < 3; i++ {
		arena.Reset()
		blk.Forward(x, cache)
		blk.BackwardInput(dy, cache)
		blk.BackwardParams(cache, grads)
	}

	allocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		blk.Forward(x, cache)
		blk.BackwardInput(dy, cache)
		blk.BackwardParams(cache, grads)
	})
	if allocs != 0 {
		t.Fatalf("steady-state train step allocates %v times per run, want 0", allocs)
	}
}
