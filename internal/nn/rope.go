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

// Apply rotates q (shape [S, headDim], one head of one sequence) in place by
// the position-dependent angles. Pairs are (2i, 2i+1).
func (t *RopeTable) Apply(q *tensor.Tensor) {
	t.rotate(q, 1)
}

// ApplyInverse applies the inverse rotation in place. Because rotation is
// orthogonal, this is exactly the backward map for gradients: if y = R·x
// then dx = Rᵀ·dy = R⁻¹·dy.
func (t *RopeTable) ApplyInverse(q *tensor.Tensor) {
	t.rotate(q, -1)
}

// ApplyAll rotates every head segment of q, where q is [G*S, heads*headDim]
// and the position of row r is r % seqLen. dir=+1 rotates forward, dir=-1
// applies the inverse (gradient) rotation.
func (t *RopeTable) ApplyAll(q *tensor.Tensor, seqLen, heads int, dir float32) {
	d := t.headDim
	half := d / 2
	rows := q.Rows()
	width := q.Cols()
	if width != heads*d {
		panic("nn: RoPE ApplyAll width mismatch")
	}
	for r := 0; r < rows; r++ {
		pos := r % seqLen
		row := q.Data[r*width : (r+1)*width]
		for h := 0; h < heads; h++ {
			seg := row[h*d : (h+1)*d]
			for i := 0; i < half; i++ {
				c := t.cos[pos*half+i]
				sn := t.sin[pos*half+i] * dir
				a, b := seg[2*i], seg[2*i+1]
				seg[2*i] = a*c - b*sn
				seg[2*i+1] = a*sn + b*c
			}
		}
	}
}

func (t *RopeTable) rotate(q *tensor.Tensor, dir float32) {
	d := t.headDim
	half := d / 2
	s := q.Size() / d
	for pos := 0; pos < s; pos++ {
		row := q.Data[pos*d : (pos+1)*d]
		for i := 0; i < half; i++ {
			c := t.cos[pos*half+i]
			sn := t.sin[pos*half+i] * dir
			a, b := row[2*i], row[2*i+1]
			row[2*i] = a*c - b*sn
			row[2*i+1] = a*sn + b*c
		}
	}
}
