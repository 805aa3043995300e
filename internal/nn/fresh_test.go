package nn

import (
	"math"
	"testing"

	"weipipe/internal/tensor"
)

// A fresh gradient set (BindFresh) starts uncleared: seeded with NaN, it
// must come out of its first W pass holding exactly what a zeroed set
// accumulates, and of the passes after it what the zeroed set sums — bit
// for bit, for every module type (the embedding, a block, its RMSNorm,
// attention and FFN on their own, and the output head), on every backend.
func TestFreshGradsOverwriteBitForBit(t *testing.T) {
	prev := tensor.BackendName()
	t.Cleanup(func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	})
	for _, name := range tensor.Backends() {
		if err := tensor.SetBackend(name); err != nil {
			t.Fatal(err)
		}
		net := newTinyNet(t, 11)
		blk := net.blocks[1]
		mods := []Module{net.embed, net.blocks[0], blk.Norm1, blk.Attn, blk.Norm2, blk.Ffn, net.head}
		// caches[k][i] is module i's cache for microbatch k: the block's
		// sub-layers run on their sub-caches of block 1's.
		const mbs = 3
		caches := make([][]*Cache, mbs)
		for k := range caches {
			tok, tgt := net.data(uint64(20 + k))
			c := []*Cache{net.cache(), net.cache(), net.cache(), net.cache()}
			x := net.embed.ForwardTokens(tok, c[0])
			x = net.blocks[0].Forward(x, c[1])
			x = blk.Forward(x, c[2])
			net.head.ForwardLoss(x, tgt, c[3])
			var dy *tensor.Tensor
			dy = net.head.BackwardInput(dy, c[3])
			dy = blk.BackwardInput(dy, c[2])
			dy = net.blocks[0].BackwardInput(dy, c[1])
			net.embed.BackwardInput(dy, c[0])
			caches[k] = []*Cache{c[0], c[1], c[2].Sub("norm1"), c[2].Sub("attn"), c[2].Sub("norm2"), c[2].Sub("ffn"), c[3]}
		}
		for i, m := range mods {
			ref, fresh := m.Params().NewUnbound(), m.Params().NewUnbound()
			refBuf, freshBuf := make([]float32, ref.Size()), make([]float32, ref.Size())
			for j := range freshBuf {
				freshBuf[j] = float32(math.NaN())
			}
			ref.Bind(refBuf)
			fresh.BindFresh(freshBuf)
			for k := 0; k < mbs; k++ {
				m.BackwardParams(caches[k][i], ref)
				m.BackwardParams(caches[k][i], fresh)
				if fresh.fresh {
					t.Fatalf("%s %s: the set is still fresh after a W pass", name, m.Name())
				}
				for j := range refBuf {
					if math.Float32bits(freshBuf[j]) != math.Float32bits(refBuf[j]) {
						t.Fatalf("%s %s after %d W passes: grad[%d] = %v, accumulated from zero %v",
							name, m.Name(), k+1, j, freshBuf[j], refBuf[j])
					}
				}
			}
		}
	}
}

// Bind after BindFresh accumulates again: only BindFresh makes a set fresh.
func TestBindClearsFresh(t *testing.T) {
	p := bindTestBlock(1).Params().NewUnbound()
	p.BindFresh(make([]float32, p.Size()))
	if !p.fresh {
		t.Fatal("BindFresh did not make the set fresh")
	}
	p.Bind(make([]float32, p.Size()))
	if p.fresh {
		t.Fatal("Bind left the set fresh")
	}
}
