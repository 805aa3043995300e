package nn

import (
	"testing"

	"weipipe/internal/tensor"
)

// TestBlockArenaLifetimes pins what one Block holds in its arena between its
// passes, derived from the shapes. The block's input x and the incoming
// gradient dz come from the same arena, as a neighbouring module's would;
// the test plays the caller that stashes neither the block's output nor its
// input gradient, so it frees both.
//
//   - after F: exactly what B and W read;
//   - after B: exactly what W reads;
//   - after W and Reset: nothing.
func TestBlockArenaLifetimes(t *testing.T) {
	const g, s, h, heads, f = 2, 16, 32, 2, 48
	rng := tensor.NewRNG(5)
	blk := NewBlock("b", h, heads, f, NewRopeTable(s, h/heads), rng)
	arena := tensor.NewArena()
	cache := NewCache(g, s)
	cache.Arena = arena

	m := g * s // token rows
	act := 4 * m * h
	inner := 4 * m * f
	row := 4 * m             // one float per row: an RMSNorm's inv
	lse := 4 * g * heads * s // attention's per-(sequence, head, row) log-sum-exp

	x := arena.Scratch(m, h)
	tensor.FillUniform(x, rng, -1, 1)
	z := blk.Forward(x, cache)
	arena.Free(z)
	// norm1: x, inv · attention: x1, q, k, v, ctx, lse · norm2: y, inv ·
	// FFN: y1, u, up, hid.
	wantF := 8*act + 2*row + lse + 3*inner
	if got := arena.LiveBytes(); got != wantF {
		t.Fatalf("after F the block holds %d bytes, want %d (what B and W read)", got, wantF)
	}

	dz := arena.Scratch(m, h)
	tensor.FillUniform(dz, rng, -1, 1)
	dx := blk.BackwardInput(dz, cache)
	arena.Free(dx)
	// norm1: x, inv, dy · attention: x1, ctx, dq, dk, dv, dy · norm2: y,
	// inv, dy · FFN: y1, hid, du, dup, dy (= dz).
	wantB := 12*act + 2*row + 3*inner
	if got := arena.LiveBytes(); got != wantB {
		t.Fatalf("after B the block holds %d bytes, want %d (what W reads)", got, wantB)
	}

	blk.BackwardParams(cache, blk.Params().NewLike())
	arena.Reset()
	if got := arena.LiveBytes(); got != 0 {
		t.Fatalf("after W and Reset the arena holds %d bytes, want 0", got)
	}
}
