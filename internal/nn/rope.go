package nn

import (
	"math"

	"weipipe/internal/tensor"
)

// ropeBase is the frequency base of rotary position embeddings (Llama: 1e4).
const ropeBase = 10000.0

// RopeTable precomputes the cos/sin rotation factors for sequences up to
// maxSeq positions and a per-head dimension headDim (must be even).
type RopeTable struct {
	headDim int
	cos     []float32 // [maxSeq * headDim/2]
	sin     []float32
}

// NewRopeTable builds the rotation table.
func NewRopeTable(maxSeq, headDim int) *RopeTable {
	if headDim%2 != 0 {
		panic("nn: RoPE head dim must be even")
	}
	half := headDim / 2
	t := &RopeTable{
		headDim: headDim,
		cos:     make([]float32, maxSeq*half),
		sin:     make([]float32, maxSeq*half),
	}
	for pos := 0; pos < maxSeq; pos++ {
		for i := 0; i < half; i++ {
			theta := float64(pos) * math.Pow(ropeBase, -2*float64(i)/float64(headDim))
			t.cos[pos*half+i] = float32(math.Cos(theta))
			t.sin[pos*half+i] = float32(math.Sin(theta))
		}
	}
	return t
}

// ApplyAll rotates every head segment of q in place, where q is
// [G*S, heads*headDim] and the position of row r is r % seqLen; pairs are
// (2i, 2i+1). dir=+1 rotates forward, dir=-1 applies the inverse rotation,
// which — rotation being orthogonal — is exactly the backward map for
// gradients: if y = R·x then dx = Rᵀ·dy = R⁻¹·dy.
func (t *RopeTable) ApplyAll(q *tensor.Tensor, seqLen, heads int, dir float32) {
	if q.Cols() != heads*t.headDim {
		panic("nn: RoPE ApplyAll width mismatch")
	}
	tensor.Rope(q, t.cos, t.sin, seqLen, heads, dir)
}
