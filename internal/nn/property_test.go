package nn

import (
	"math"
	"testing"
	"testing/quick"

	"weipipe/internal/tensor"
)

// Property: RMSNorm is scale-invariant in its input — y(αx) == y(x) for
// α > 0 (the RMS divides the scale back out).
func TestRMSNormScaleInvarianceProperty(t *testing.T) {
	f := func(seed uint64, alphaRaw uint8) bool {
		alpha := float32(alphaRaw%50)/10 + 0.5 // 0.5 .. 5.4
		rng := tensor.NewRNG(seed)
		m := NewRMSNorm("n", 8)
		tensor.FillNormal(m.Gain, rng, 1)
		x := tensor.New(3, 8)
		tensor.FillNormal(x, rng, 2)
		xs := x.Clone()
		tensor.Scale(xs, xs, alpha)

		y := m.Forward(x, NewCache(1, 3))
		ys := m.Forward(xs, NewCache(1, 3))
		for i := range y.Data {
			// eps breaks exact invariance for tiny inputs; allow slack
			if math.Abs(float64(y.Data[i]-ys.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: attention output is linear in V — scaling Wv scales the
// pre-projection context linearly, so out(x; αWv) == α·out(x; Wv) with Wo
// fixed... (softmax depends only on q, k).
func TestAttentionLinearInVProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		a := NewAttention("a", 8, 2, nil, rng)
		x := tensor.New(2*4, 8)
		tensor.FillNormal(x, rng, 1)
		y1 := a.Forward(x, NewCache(2, 4))
		tensor.Scale(a.Wv, a.Wv, 3)
		y3 := a.Forward(x, NewCache(2, 4))
		for i := range y1.Data {
			if math.Abs(float64(y3.Data[i]-3*y1.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the head's cross-entropy is invariant to a constant shift of
// every logit (softmax normalisation).
func TestHeadShiftInvarianceProperty(t *testing.T) {
	f := func(seed uint64, shiftRaw int8) bool {
		rng := tensor.NewRNG(seed)
		o := NewOutputHead("h", 8, 7, rng)
		x := tensor.New(3, 8)
		tensor.FillNormal(x, rng, 1)
		targets := [][]int{{1, 3, 5}}
		base := o.ForwardLoss(x, targets, NewCache(1, 3))

		// shift all logits by adding a constant column bias via W: append
		// the shift through a rank-1 update is complex; instead verify via
		// direct softmax property on a second head whose W columns all get
		// the same constant added per row — equivalent to shifting logits
		// by c·Σnormed which differs per row; so instead test the loss of
		// explicitly shifted logits through Sample-free math:
		shift := float32(shiftRaw) / 8
		logits := tensor.New(3, 7)
		tensor.MatMul(logits, o.Norm.Forward(x, NewCache(1, 3).Sub("norm")), o.W)
		l1 := ceOf(logits, targets[0])
		for i := range logits.Data {
			logits.Data[i] += shift
		}
		l2 := ceOf(logits, targets[0])
		return math.Abs(l1-l2) < 1e-4 && base > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// ceOf computes mean cross-entropy of [n, V] logits against targets.
func ceOf(logits *tensor.Tensor, targets []int) float64 {
	n := logits.Rows()
	v := logits.Cols()
	probs := tensor.New(n, v)
	tensor.SoftmaxRows(probs, logits)
	var loss float64
	for i := 0; i < n; i++ {
		loss -= math.Log(float64(probs.Data[i*v+targets[i]]))
	}
	return loss / float64(n)
}

// Property: Block backward propagates exactly one gradient per input
// element — feeding dz of zeros yields dx of zeros (no gradient leakage),
// and the residual path guarantees dx ≠ 0 for non-zero dz.
func TestBlockGradientFlowProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		b := NewBlock("b", 8, 2, 12, nil, rng)
		x := tensor.New(2*3, 8)
		tensor.FillNormal(x, rng, 1)
		c := NewCache(2, 3)
		b.Forward(x, c)

		zero := tensor.New(2*3, 8)
		dx0 := b.BackwardInput(zero, c)
		if dx0.MaxAbs() != 0 {
			return false
		}
		c2 := NewCache(2, 3)
		b.Forward(x, c2)
		dz := tensor.New(2*3, 8)
		tensor.FillNormal(dz, rng, 1)
		dx := b.BackwardInput(dz, c2)
		return dx.MaxAbs() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
