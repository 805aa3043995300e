package nn

import (
	"slices"
	"testing"

	"weipipe/internal/tensor"
)

// TestBlockArenaLifetimes pins what one Block holds in its arena between its
// passes, derived from the shapes. The incoming gradient dz comes from the
// arena, as a neighbouring module's would, and so does the block's input x
// unless the case says otherwise; the test plays the caller that stashes
// neither the block's output nor its input gradient, so it frees both.
//
//   - after F: exactly what B and W read;
//   - after B: exactly what W reads;
//   - after W and Reset: nothing.
//
// A block whose input the arena does not own — a pipeline stage's received
// payload — leaves it live and untouched.
func TestBlockArenaLifetimes(t *testing.T) {
	const g, s, h, heads, f = 2, 16, 32, 2, 48
	m := g * s // token rows
	act := 4 * m * h
	inner := 4 * m * f
	row := 4 * m             // one float per row: an RMSNorm's inv
	lse := 4 * g * heads * s // attention's per-(sequence, head, row) log-sum-exp

	for _, tc := range []struct {
		name       string
		arenaInput bool
	}{{"input from the arena", true}, {"received input", false}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(5)
			blk := NewBlock("b", h, heads, f, NewRopeTable(s, h/heads), rng)
			arena := tensor.NewArena()
			cache := NewCache(g, s)
			cache.Arena = arena

			x := tensor.FromSlice(make([]float32, m*h), m, h)
			inArena := 0
			if tc.arenaInput {
				x, inArena = arena.Scratch(m, h), act
			}
			tensor.FillUniform(x, rng, -1, 1)
			sent := slices.Clone(x.Data)
			z := blk.Forward(x, cache)
			arena.Free(z)
			// norm1: x, inv · attention: x1, q, k, v, ctx, lse · norm2: y, inv ·
			// FFN: y1, u, up.
			wantF := 7*act + inArena + 2*row + lse + 2*inner
			if got := arena.LiveBytes(); got != wantF {
				t.Fatalf("after F the block holds %d bytes, want %d (what B and W read)", got, wantF)
			}

			dz := arena.Scratch(m, h)
			tensor.FillUniform(dz, rng, -1, 1)
			dx := blk.BackwardInput(dz, cache)
			arena.Free(dx)
			// norm1: q · attention: x1, ctx, dq, dk, dv, dy · norm2: q ·
			// FFN: y1, hid, du, dup, dy (= dz).
			wantB := 10*act + 3*inner
			if got := arena.LiveBytes(); got != wantB {
				t.Fatalf("after B the block holds %d bytes, want %d (what W reads)", got, wantB)
			}

			blk.BackwardParams(cache, blk.Params().NewLike())
			if !tc.arenaInput && !slices.Equal(x.Data, sent) {
				t.Fatal("the block wrote to an input its arena does not own")
			}
			arena.Reset()
			if got := arena.LiveBytes(); got != 0 {
				t.Fatalf("after W and Reset the arena holds %d bytes, want 0", got)
			}
		})
	}
}

// TestOutputHeadArenaLifetimes pins the head the same way: after its B pass
// it holds the normed input and dlogits, which its projection's W reads,
// and the final norm's gain terms, nothing else — its input, the norm's
// inv, the probabilities and the targets are given back.
func TestOutputHeadArenaLifetimes(t *testing.T) {
	const g, s, h, v = 2, 16, 32, 40
	m := g * s
	act := 4 * m * h
	rng := tensor.NewRNG(6)
	head := NewOutputHead("head", h, v, rng)
	arena := tensor.NewArena()
	cache := NewCache(g, s)
	cache.Arena = arena

	x := arena.Scratch(m, h)
	tensor.FillUniform(x, rng, -1, 1)
	targets := make([][]int, g)
	for gi := range targets {
		targets[gi] = make([]int, s)
		for si := range targets[gi] {
			targets[gi][si] = rng.Intn(v)
		}
	}
	head.ForwardLoss(x, targets, cache)
	// x, the norm's inv, normed, probs, targets.
	wantF := 2*act + 4*m + 4*m*v + 4*m
	if got := arena.LiveBytes(); got != wantF {
		t.Fatalf("after F the head holds %d bytes, want %d", got, wantF)
	}

	arena.Free(head.BackwardFromLoss(cache))
	// normed, dlogits, the norm's q.
	wantB := act + 4*m*v + act
	if got := arena.LiveBytes(); got != wantB {
		t.Fatalf("after B the head holds %d bytes, want %d (normed, dlogits and the norm's gain terms)", got, wantB)
	}
	if !cache.Has("normed") || !cache.Has("dlogits") || !cache.Sub("norm").Has("q") {
		t.Fatal("after B the head must stash normed, dlogits and the norm's gain terms q")
	}

	head.BackwardParams(cache, head.Params().NewLike())
	arena.Reset()
}
