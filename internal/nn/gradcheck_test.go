package nn

import (
	"math"
	"testing"

	"weipipe/internal/tensor"
)

// tinyNet is a full miniature model: embedding, two blocks, output head.
type tinyNet struct {
	embed  *Embedding
	blocks []*Block
	head   *OutputHead
	g, s   int
	// arena, when set, backs every cache the net creates.
	arena *tensor.Arena
	// flatGrads makes lossAndGrads accumulate into storage-less gradient
	// sets bound to flat buffers, the way a W pass writes its belt payload.
	flatGrads bool
}

func (n *tinyNet) cache() *Cache {
	c := NewCache(n.g, n.s)
	c.Arena = n.arena
	return c
}

func newTinyNet(t testing.TB, seed uint64) *tinyNet {
	t.Helper()
	const (
		V     = 13
		H     = 8
		heads = 2
		F     = 12
		L     = 2
		S     = 5
		G     = 2
	)
	rng := tensor.NewRNG(seed)
	rope := NewRopeTable(S, H/heads)
	net := &tinyNet{g: G, s: S}
	net.embed = NewEmbedding("embed", V, H, rng.Split())
	for i := 0; i < L; i++ {
		net.blocks = append(net.blocks, NewBlock("block", H, heads, F, rope, rng.Split()))
	}
	net.head = NewOutputHead("head", H, V, rng.Split())
	return net
}

func (n *tinyNet) modules() []Module {
	ms := []Module{n.embed}
	for _, b := range n.blocks {
		ms = append(ms, b)
	}
	ms = append(ms, n.head)
	return ms
}

func (n *tinyNet) data(seed uint64) (tokens, targets [][]int) {
	rng := tensor.NewRNG(seed)
	tokens = make([][]int, n.g)
	targets = make([][]int, n.g)
	for gi := 0; gi < n.g; gi++ {
		tokens[gi] = make([]int, n.s)
		targets[gi] = make([]int, n.s)
		for si := 0; si < n.s; si++ {
			tokens[gi][si] = rng.Intn(13)
			targets[gi][si] = rng.Intn(13)
		}
	}
	return tokens, targets
}

// loss runs a pure forward pass and returns the scalar loss.
func (n *tinyNet) loss(tokens, targets [][]int) float64 {
	x := n.embed.ForwardTokens(tokens, n.cache())
	for _, b := range n.blocks {
		x = b.Forward(x, n.cache())
	}
	return n.head.ForwardLoss(x, targets, n.cache())
}

// lossAndGrads runs forward + full backward, returning loss and per-module
// gradient sets aligned with modules().
func (n *tinyNet) lossAndGrads(tokens, targets [][]int) (float64, []*ParamSet) {
	mods := n.modules()
	caches := make([]*Cache, len(mods))
	for i := range caches {
		caches[i] = n.cache()
	}
	x := n.embed.ForwardTokens(tokens, caches[0])
	for i, b := range n.blocks {
		x = b.Forward(x, caches[i+1])
	}
	loss := n.head.ForwardLoss(x, targets, caches[len(mods)-1])

	grads := make([]*ParamSet, len(mods))
	for i, m := range mods {
		if n.flatGrads {
			grads[i] = m.Params().NewUnbound()
			grads[i].Bind(make([]float32, grads[i].Size()))
		} else {
			grads[i] = m.Params().NewLike()
		}
	}
	var dy *tensor.Tensor
	for i := len(mods) - 1; i >= 0; i-- {
		dy = mods[i].BackwardInput(dy, caches[i])
		mods[i].BackwardParams(caches[i], grads[i])
	}
	return loss, grads
}

// checkGradFD compares an analytic gradient against a central finite
// difference on the loss, for a sample of parameter indices.
func checkGradFD(t *testing.T, net *tinyNet, tokens, targets [][]int,
	param *tensor.Tensor, grad *tensor.Tensor, name string) {
	t.Helper()
	const eps = 3e-3
	rng := tensor.NewRNG(99)
	nSamples := 6
	if param.Size() < nSamples {
		nSamples = param.Size()
	}
	for k := 0; k < nSamples; k++ {
		i := rng.Intn(param.Size())
		orig := param.Data[i]
		param.Data[i] = orig + eps
		lp := net.loss(tokens, targets)
		param.Data[i] = orig - eps
		lm := net.loss(tokens, targets)
		param.Data[i] = orig
		fd := (lp - lm) / (2 * eps)
		an := float64(grad.Data[i])
		tol := 3e-3 + 0.03*math.Abs(fd)
		if !(math.Abs(fd-an) <= tol) { // a NaN on either side fails too
			t.Errorf("%s[%d]: analytic %.6f vs finite-diff %.6f", name, i, an, fd)
		}
	}
}

func TestGradCheckFullModel(t *testing.T) { gradCheckFullModel(t, newTinyNet(t, 1)) }

// The same check with every intermediate drawn from a NaN-poisoned arena:
// a module that read a scratch tensor before writing all of it would turn
// the loss or a gradient into NaN. This is the audit behind alloc handing
// out uncleared buffers.
func TestGradCheckFullModelPoisonedArena(t *testing.T) {
	tensor.SetArenaPoison(true)
	defer tensor.SetArenaPoison(false)
	net := newTinyNet(t, 1)
	net.arena = tensor.NewArena()
	gradCheckFullModel(t, net)
}

// The same check computing straight out of a belt buffer: every module's
// parameters are views of one flat chunk (ParamSet.Bind), their own storage
// is NaN — so a layer that kept a slice of its home tensor instead of reading
// through the bound one poisons the loss — and gradients accumulate into
// bound flat buffers. The finite differences perturb the chunk itself.
func TestGradCheckFullModelBound(t *testing.T) {
	net := newTinyNet(t, 1)
	net.flatGrads = true
	for _, m := range net.modules() {
		ps := m.Params()
		chunk := ps.Flatten()
		ps.Bind(chunk)
		nan := float32(math.NaN())
		for _, home := range ps.home {
			for i := range home {
				home[i] = nan
			}
		}
	}
	gradCheckFullModel(t, net)
}

func gradCheckFullModel(t *testing.T, net *tinyNet) {
	tokens, targets := net.data(2)
	loss, grads := net.lossAndGrads(tokens, targets)
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("bad loss %v", loss)
	}
	mods := net.modules()
	for mi, m := range mods {
		ps := m.Params()
		for _, pname := range ps.Names() {
			checkGradFD(t, net, tokens, targets, ps.Get(pname), grads[mi].Get(pname),
				m.Name()+"/"+pname)
		}
	}
}

func TestSplitBackwardMatchesFused(t *testing.T) {
	// Running B then W (split) must equal running nn.Backward (fused) —
	// the property zero-bubble schedules depend on.
	net := newTinyNet(t, 3)
	tokens, targets := net.data(4)
	_, split := net.lossAndGrads(tokens, targets)

	net2 := newTinyNet(t, 3)
	mods := net2.modules()
	caches := make([]*Cache, len(mods))
	for i := range caches {
		caches[i] = NewCache(net2.g, net2.s)
	}
	x := net2.embed.ForwardTokens(tokens, caches[0])
	for i, b := range net2.blocks {
		x = b.Forward(x, caches[i+1])
	}
	net2.head.ForwardLoss(x, targets, caches[len(mods)-1])
	fused := make([]*ParamSet, len(mods))
	var dy *tensor.Tensor
	for i := len(mods) - 1; i >= 0; i-- {
		fused[i] = mods[i].Params().NewLike()
		dy = Backward(mods[i], dy, caches[i], fused[i])
	}
	for i := range mods {
		if d := split[i].MaxAbsDiff(fused[i]); d > 1e-6 {
			t.Errorf("module %d: split vs fused grads differ by %v", i, d)
		}
	}
}

func TestBackwardParamsAccumulates(t *testing.T) {
	// Two microbatches accumulated into one grad set must equal the sum of
	// the per-microbatch grads.
	net := newTinyNet(t, 5)
	tok1, tgt1 := net.data(6)
	tok2, tgt2 := net.data(7)

	_, g1 := net.lossAndGrads(tok1, tgt1)
	_, g2 := net.lossAndGrads(tok2, tgt2)
	for i := range g1 {
		g1[i].AddInto(g2[i])
	}

	// accumulate both into a single set
	mods := net.modules()
	acc := make([]*ParamSet, len(mods))
	for i, m := range mods {
		acc[i] = m.Params().NewLike()
	}
	for _, d := range []struct{ tok, tgt [][]int }{{tok1, tgt1}, {tok2, tgt2}} {
		caches := make([]*Cache, len(mods))
		for i := range caches {
			caches[i] = NewCache(net.g, net.s)
		}
		x := net.embed.ForwardTokens(d.tok, caches[0])
		for i, b := range net.blocks {
			x = b.Forward(x, caches[i+1])
		}
		net.head.ForwardLoss(x, d.tgt, caches[len(mods)-1])
		var dy *tensor.Tensor
		for i := len(mods) - 1; i >= 0; i-- {
			dy = mods[i].BackwardInput(dy, caches[i])
			mods[i].BackwardParams(caches[i], acc[i])
		}
	}
	for i := range mods {
		if d := acc[i].MaxAbsDiff(g1[i]); d > 1e-5 {
			t.Errorf("module %d: accumulated grads differ by %v", i, d)
		}
	}
}

func TestRecomputationReproducesGrads(t *testing.T) {
	// Forward, drop intermediates (keep only X), re-run Forward, then
	// backward: grads must match the no-recompute run exactly.
	net := newTinyNet(t, 8)
	tokens, targets := net.data(9)
	_, want := net.lossAndGrads(tokens, targets)

	mods := net.modules()
	caches := make([]*Cache, len(mods))
	for i := range caches {
		caches[i] = NewCache(net.g, net.s)
	}
	x := net.embed.ForwardTokens(tokens, caches[0])
	inputs := make([]*tensor.Tensor, len(mods))
	for i, b := range net.blocks {
		inputs[i+1] = x
		x = b.Forward(x, caches[i+1])
	}
	inputs[len(mods)-1] = x
	net.head.ForwardLoss(x, targets, caches[len(mods)-1])

	// Drop everything except X (and the token/target stashes the edge
	// modules need to re-run).
	for i := 1; i < len(mods)-1; i++ {
		caches[i].DropAllButX()
	}

	grads := make([]*ParamSet, len(mods))
	var dy *tensor.Tensor
	for i := len(mods) - 1; i >= 0; i-- {
		grads[i] = mods[i].Params().NewLike()
		if i > 0 && i < len(mods)-1 {
			// recompute: forward again from the saved input
			mods[i].Forward(caches[i].X, caches[i])
		}
		dy = mods[i].BackwardInput(dy, caches[i])
		mods[i].BackwardParams(caches[i], grads[i])
	}
	for i := range mods {
		if d := grads[i].MaxAbsDiff(want[i]); d > 1e-6 {
			t.Errorf("module %d: recompute grads differ by %v", i, d)
		}
	}
}
