package nn

import (
	"math"
	"testing"

	"weipipe/internal/tensor"
)

// attentionArenaBytes runs one Attention forward + input-backward at
// sequence length s through a fresh arena and returns the heap it drew.
func attentionArenaBytes(t *testing.T, h, heads, s int) int {
	t.Helper()
	rng := tensor.NewRNG(21)
	attn := NewAttention("a", h, heads, NewRopeTable(s, h/heads), rng)
	x, dy := tensor.New(s, h), tensor.New(s, h)
	tensor.FillNormal(x, rng, 1)
	tensor.FillNormal(dy, rng, 1)
	cache := NewCache(1, s)
	cache.Arena = tensor.NewArena()
	attn.Forward(x, cache)
	dx := attn.BackwardInput(dy, cache)
	for _, v := range dx.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("S=%d: non-finite input gradient", s)
		}
	}
	return cache.Arena.Bytes()
}

// Attention's activations are O(S): doubling the sequence may only double
// what a forward + backward draws from the arena (an [S,S] stash would
// quadruple it).
func TestAttentionActivationBytesLinearInS(t *testing.T) {
	const h, heads, s = 32, 2, 192
	small := attentionArenaBytes(t, h, heads, s)
	big := attentionArenaBytes(t, h, heads, 2*s)
	if ratio := float64(big) / float64(small); ratio > 2.1 {
		t.Fatalf("arena bytes %d at S=%d, %d at S=%d: grew %.2f×, want ≤ 2.1×", small, s, big, 2*s, ratio)
	}
}

// At S = 8192 a single [S,S] float32 matrix is 256 MiB; the tiled kernel
// trains the layer in a few MB.
func TestAttentionLongSequenceArenaBound(t *testing.T) {
	if testing.Short() {
		t.Skip("long-sequence attention pass")
	}
	const limit = 16 << 20
	if got := attentionArenaBytes(t, 16, 1, 8192); got >= limit {
		t.Fatalf("S=8192 forward+backward drew %d arena bytes, want < %d", got, limit)
	}
}
