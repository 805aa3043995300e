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

// The W pass of every module type — the embedding, a block, its RMSNorm,
// attention and FFN on their own, and the output head — allocates nothing
// once it has seen its gradient set: neither into a set bound fresh, as a
// trainer binds each iteration's first pass, nor into one that
// accumulates.
func TestWPassZeroAllocEveryModule(t *testing.T) {
	net := newTinyNet(t, 17)
	blk := net.blocks[1]
	tok, tgt := net.data(23)
	c := []*Cache{net.cache(), net.cache(), net.cache(), net.cache()}
	x := net.embed.ForwardTokens(tok, c[0])
	x = net.blocks[0].Forward(x, c[1])
	x = blk.Forward(x, c[2])
	net.head.ForwardLoss(x, tgt, c[3])
	dy := net.head.BackwardInput(nil, c[3])
	dy = blk.BackwardInput(dy, c[2])
	dy = net.blocks[0].BackwardInput(dy, c[1])
	net.embed.BackwardInput(dy, c[0])
	mods := []Module{net.embed, net.blocks[0], blk.Norm1, blk.Attn, blk.Norm2, blk.Ffn, net.head}
	caches := []*Cache{c[0], c[1], c[2].Sub("norm1"), c[2].Sub("attn"), c[2].Sub("norm2"), c[2].Sub("ffn"), c[3]}
	for i, m := range mods {
		grads := m.Params().NewUnbound()
		buf := make([]float32, grads.Size())
		pass := func() {
			grads.BindFresh(buf)
			m.BackwardParams(caches[i], grads)
			m.BackwardParams(caches[i], grads)
		}
		pass()
		if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
			t.Errorf("%s (%T): the W pass allocates %v times per run, want 0", m.Name(), m, allocs)
		}
	}
}
