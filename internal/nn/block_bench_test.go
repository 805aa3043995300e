package nn

import (
	"testing"

	"weipipe/internal/tensor"
)

// benchBlock builds a small transformer block plus the input/cache/grads
// state a steady-state training step reuses.
func benchBlock() (*Block, *tensor.Tensor, *ParamSet) {
	rng := tensor.NewRNG(7)
	const h, heads, f, s = 128, 4, 256, 64
	rope := NewRopeTable(s, h/heads)
	blk := NewBlock("b", h, heads, f, rope, rng)
	x := tensor.New(s, h)
	tensor.FillUniform(x, rng, -1, 1)
	grads := blk.Params().NewLike()
	return blk, x, grads
}

func BenchmarkBlockForwardBackward(b *testing.B) {
	blk, x, grads := benchBlock()
	arena := tensor.NewArena()
	cache := NewCache(1, x.Rows())
	cache.Arena = arena
	dy := tensor.New(x.Shape()...)
	dy.Fill(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		out := blk.Forward(x, cache)
		dx := blk.BackwardInput(dy, cache)
		blk.BackwardParams(cache, grads)
		_, _ = out, dx
	}
}

// BenchmarkBlockForwardBackwardNoArena is the pre-arena allocation path kept
// as a comparison point: every intermediate comes from tensor.New.
func BenchmarkBlockForwardBackwardNoArena(b *testing.B) {
	blk, x, grads := benchBlock()
	cache := NewCache(1, x.Rows())
	dy := tensor.New(x.Shape()...)
	dy.Fill(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := blk.Forward(x, cache)
		dx := blk.BackwardInput(dy, cache)
		blk.BackwardParams(cache, grads)
		_, _ = out, dx
	}
}

// BenchmarkAttentionFwdBwd times one attention layer's F+B+W at the
// long-context shapes, where the fused kernel is the hot path, once per
// registered kernel backend; B/op stays 0 once the arena has grown.
func BenchmarkAttentionFwdBwd(b *testing.B) {
	for _, shape := range []struct {
		name        string
		h, heads, s int
	}{{"H64_S512", 64, 4, 512}, {"H64_S2048", 64, 4, 2048}} {
		for _, bk := range tensor.Backends() {
			b.Run(shape.name+"/"+bk, func(b *testing.B) {
				prev := tensor.BackendName()
				if err := tensor.SetBackend(bk); err != nil {
					b.Fatal(err)
				}
				defer func() {
					if err := tensor.SetBackend(prev); err != nil {
						b.Fatal(err)
					}
				}()
				rng := tensor.NewRNG(7)
				attn := NewAttention("a", shape.h, shape.heads, NewRopeTable(shape.s, shape.h/shape.heads), rng)
				x, dy := tensor.New(shape.s, shape.h), tensor.New(shape.s, shape.h)
				tensor.FillUniform(x, rng, -1, 1)
				dy.Fill(0.01)
				grads := attn.Params().NewLike()
				arena := tensor.NewArena()
				cache := NewCache(1, shape.s)
				cache.Arena = arena
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arena.Reset()
					attn.Forward(x, cache)
					attn.BackwardInput(dy, cache)
					attn.BackwardParams(cache, grads)
				}
			})
		}
	}
}
