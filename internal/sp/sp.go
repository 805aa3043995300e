// Package sp implements sequence parallelism, the related-work axis the
// paper positions WeiPipe against for long contexts: every rank holds a
// contiguous slice of each sequence's tokens, weights are replicated
// (DP-style), and attention is computed exactly by all-gathering keys and
// values along the sequence dimension (the DeepSpeed-Ulysses/DistAttention
// family's simplest correct variant). Per layer per microbatch the wire
// carries 2 activation-sized all-gathers forward and 2 reduce-scatters
// backward — like TP, bandwidth that scales with G·S·H, which is exactly
// the traffic class WeiPipe's fixed-size weight belts avoid.
package sp

import (
	"fmt"

	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/tensor"
)

// Worker is one rank of a sequence-parallel group. All ranks hold the full
// replicated model; rank r owns token positions [r·S/T, (r+1)·S/T) of every
// sequence.
type Worker struct {
	t    comm.Transport
	cfg  model.Config
	mdl  *model.Model
	rope *nn.RopeTable
	opt  *optim.AdamW
	seq  int
}

// New builds an SP worker; the model is replicated via the deterministic
// seed.
func New(t comm.Transport, cfg model.Config) (*Worker, error) {
	cfg = cfg.WithDefaults()
	mdl := model.Build(cfg)
	return &Worker{
		t:    t,
		cfg:  cfg,
		mdl:  mdl,
		rope: nn.NewRopeTable(cfg.MaxSeq, cfg.Hidden/cfg.Heads),
		opt:  optim.NewAdamW(mdl.NumParams(), optim.DefaultAdamW(1e-3)),
	}, nil
}

// SetAdam replaces the optimizer configuration (call before training).
func (w *Worker) SetAdam(cfg optim.AdamWConfig) {
	w.opt = optim.NewAdamW(w.mdl.NumParams(), cfg)
}

// Model returns the replicated local model.
func (w *Worker) Model() *model.Model { return w.mdl }

// sliceTokens returns this rank's token slice of a batch.
func (w *Worker) sliceTokens(b data.Batch) (tokens, targets [][]int, sl, offset int, err error) {
	s := b.S()
	tSize := w.t.Size()
	if s%tSize != 0 {
		return nil, nil, 0, 0, fmt.Errorf("sp: sequence length %d not divisible by %d ranks", s, tSize)
	}
	sl = s / tSize
	offset = w.t.Rank() * sl
	for gi := range b.Tokens {
		tokens = append(tokens, b.Tokens[gi][offset:offset+sl])
		targets = append(targets, b.Targets[gi][offset:offset+sl])
	}
	return tokens, targets, sl, offset, nil
}

// layerState carries one layer's forward intermediates to backward.
type layerState struct {
	x      *tensor.Tensor // layer input (local rows)
	n1     *nn.Cache
	n2     *nn.Cache
	ffn    *nn.Cache
	attn   *attnState
	attnIn *tensor.Tensor // norm1 output (local rows)
}

// TrainIteration processes the microbatches and steps the replicated
// optimizer (gradients all-reduced DP-style at the end). Returns the mean
// loss over all tokens, identical on every rank.
func (w *Worker) TrainIteration(batches []data.Batch) (float64, error) {
	grads := make([]*nn.ParamSet, len(w.mdl.Modules))
	for i, m := range w.mdl.Modules {
		grads[i] = m.Params().NewLike()
	}
	var lossSum float64
	for _, b := range batches {
		loss, err := w.trainMicrobatch(b, grads)
		if err != nil {
			return 0, err
		}
		lossSum += loss
	}

	// DP-style weight-gradient all-reduce (weights replicated).
	flatG := make([]float32, 0, w.mdl.NumParams())
	for i := range grads {
		flatG = append(flatG, grads[i].Flatten()...)
	}
	w.seq++
	if err := comm.RingAllReduceSum(w.t, flatG, w.seq); err != nil {
		return 0, err
	}
	inv := float32(1.0 / float64(len(batches)))
	for i := range flatG {
		flatG[i] *= inv
	}
	flatW := make([]float32, w.mdl.NumParams())
	w.mdl.FlattenChunk(0, len(w.mdl.Modules), flatW)
	w.opt.Step(flatW, flatG)
	w.mdl.SetChunk(0, len(w.mdl.Modules), flatW)

	w.seq++
	total, err := comm.AllReduceScalarSum(w.t, lossSum, w.seq)
	if err != nil {
		return 0, err
	}
	return total / float64(len(batches)), nil
}

func (w *Worker) trainMicrobatch(b data.Batch, grads []*nn.ParamSet) (float64, error) {
	tokens, targets, sl, offset, err := w.sliceTokens(b)
	if err != nil {
		return 0, err
	}
	g := b.G()

	embedCache := nn.NewCache(g, sl)
	x := w.mdl.Embed.ForwardTokens(tokens, embedCache)

	states := make([]*layerState, len(w.mdl.Blocks))
	for li, blk := range w.mdl.Blocks {
		st := &layerState{x: x, n1: nn.NewCache(g, sl), n2: nn.NewCache(g, sl), ffn: nn.NewCache(g, sl)}
		x1 := blk.Norm1.Forward(x, st.n1)
		st.attnIn = x1
		ao, as, err := w.attnForward(blk, x1, g, sl, offset, b.S())
		if err != nil {
			return 0, err
		}
		st.attn = as
		y := tensor.New(x.Shape()...)
		tensor.Add(y, x, ao)

		y1 := blk.Norm2.Forward(y, st.n2)
		fo := blk.Ffn.Forward(y1, st.ffn)
		z := tensor.New(x.Shape()...)
		tensor.Add(z, y, fo)
		states[li] = st
		x = z
	}

	headCache := nn.NewCache(g, sl)
	localLoss := w.mdl.Head.ForwardLoss(x, targets, headCache)
	// ForwardLoss averages over local tokens; re-weight to a global mean.
	tSize := float64(w.t.Size())

	// Backward. dlogits inside the head is scaled by 1/(g·sl); the global
	// loss divides by g·S, so scale gradients by 1/T.
	dy := w.mdl.Head.BackwardFromLoss(headCache)
	scaleT := float32(1.0 / tSize)
	tensor.Scale(dy, dy, scaleT)
	headGrads := w.mdl.Head.Params().NewLike()
	w.mdl.Head.BackwardParams(headCache, headGrads)
	headGrads.Scale(scaleT)
	grads[len(grads)-1].AddInto(headGrads)

	for li := len(w.mdl.Blocks) - 1; li >= 0; li-- {
		blk := w.mdl.Blocks[li]
		st := states[li]
		gi := 1 + li

		dy1 := blk.Ffn.BackwardInput(dy, st.ffn)
		blk.Ffn.BackwardParams(st.ffn, subParams(grads[gi], "ffn."))
		dyFfn := blk.Norm2.BackwardInput(dy1, st.n2)
		blk.Norm2.BackwardParams(st.n2, subParams(grads[gi], "norm2."))
		dyMid := tensor.New(dy.Shape()...)
		tensor.Add(dyMid, dy, dyFfn)

		dx1, err := w.attnBackward(blk, st, dyMid, g, sl, offset, b.S(), subParams(grads[gi], "attn."))
		if err != nil {
			return 0, err
		}
		dxAttn := blk.Norm1.BackwardInput(dx1, st.n1)
		blk.Norm1.BackwardParams(st.n1, subParams(grads[gi], "norm1."))
		dx := tensor.New(dy.Shape()...)
		tensor.Add(dx, dyMid, dxAttn)
		dy = dx
	}

	w.mdl.Embed.BackwardInput(dy, embedCache)
	w.mdl.Embed.BackwardParams(embedCache, grads[0])

	return localLoss / tSize, nil
}

// subParams views the grads of one sub-layer by name prefix.
func subParams(grads *nn.ParamSet, prefix string) *nn.ParamSet {
	out := nn.NewParamSet()
	for _, n := range grads.Names() {
		if len(n) > len(prefix) && n[:len(prefix)] == prefix {
			out.Add(n[len(prefix):], grads.Get(n))
		}
	}
	return out
}

// attnState carries the attention intermediates of one layer.
type attnState struct {
	q     *tensor.Tensor // local rows, post-rope
	kFull *tensor.Tensor // all positions, post-rope
	vFull *tensor.Tensor
	ctx   *tensor.Tensor // local rows
	lse   *tensor.Tensor // [g·heads·sl] row log-sum-exps
}

// attnForward computes exact causal attention for this rank's query slice
// against the all-gathered keys/values.
func (w *Worker) attnForward(blk *nn.Block, x1 *tensor.Tensor, g, sl, offset, s int) (*tensor.Tensor, *attnState, error) {
	a := blk.Attn
	h := w.cfg.Hidden
	heads := a.Heads
	tokensLoc := g * sl

	q := tensor.New(tokensLoc, h)
	k := tensor.New(tokensLoc, h)
	v := tensor.New(tokensLoc, h)
	tensor.MatMul(q, x1, a.Wq)
	tensor.MatMul(k, x1, a.Wk)
	tensor.MatMul(v, x1, a.Wv)
	w.rope.ApplyAllOffset(q, sl, heads, 1, offset)
	w.rope.ApplyAllOffset(k, sl, heads, 1, offset)

	kFull, err := w.gatherSeq(k, g, sl, s, h)
	if err != nil {
		return nil, nil, err
	}
	vFull, err := w.gatherSeq(v, g, sl, s, h)
	if err != nil {
		return nil, nil, err
	}

	// The fused kernel takes the rank's query slice against the longer keys
	// directly: query row i sits at global position offset+i.
	ctx := tensor.New(tokensLoc, h)
	lse := tensor.New(g * heads * sl)
	tensor.CausalAttention(ctx, lse, q, kFull, vFull, heads, sl, s, offset)
	out := tensor.New(tokensLoc, h)
	tensor.MatMul(out, ctx, a.Wo)
	return out, &attnState{q: q, kFull: kFull, vFull: vFull, ctx: ctx, lse: lse}, nil
}

// attnBackward mirrors attnForward; dK/dV contributions for remote
// positions are reduce-scattered back to their owners.
func (w *Worker) attnBackward(blk *nn.Block, st *layerState, dy *tensor.Tensor,
	g, sl, offset, s int, grads *nn.ParamSet) (*tensor.Tensor, error) {
	a := blk.Attn
	as := st.attn
	h := w.cfg.Hidden
	heads := a.Heads
	tokensLoc := g * sl

	dctx := tensor.New(tokensLoc, h)
	tensor.MatMulTB(dctx, dy, a.Wo)

	dq := tensor.New(tokensLoc, h)
	dkFull := tensor.New(g*s, h)
	dvFull := tensor.New(g*s, h)
	tensor.CausalAttentionBackward(dq, dkFull, dvFull, as.q, as.kFull, as.vFull, as.ctx, dctx, as.lse, heads, sl, s, offset)

	dkLoc, err := w.scatterSeq(dkFull, g, sl, s, h)
	if err != nil {
		return nil, err
	}
	dvLoc, err := w.scatterSeq(dvFull, g, sl, s, h)
	if err != nil {
		return nil, err
	}

	// un-rope local gradients
	w.rope.ApplyAllOffset(dq, sl, heads, -1, offset)
	w.rope.ApplyAllOffset(dkLoc, sl, heads, -1, offset)

	dx := tensor.New(tokensLoc, h)
	tensor.MatMulTB(dx, dq, a.Wq)
	tensor.MatMulTBAcc(dx, dkLoc, a.Wk)
	tensor.MatMulTBAcc(dx, dvLoc, a.Wv)

	// weight grads from local rows (summed across ranks by the final DP
	// all-reduce)
	tensor.MatMulTAAcc(grads.Get("wq"), st.attnIn, dq)
	tensor.MatMulTAAcc(grads.Get("wk"), st.attnIn, dkLoc)
	tensor.MatMulTAAcc(grads.Get("wv"), st.attnIn, dvLoc)
	tensor.MatMulTAAcc(grads.Get("wo"), as.ctx, dy)
	return dx, nil
}

// gatherSeq all-gathers per-sequence slices so each rank holds the full
// [g·S, h] tensor in global token order. local is [g·sl, h] with this
// rank's slice of every sequence.
func (w *Worker) gatherSeq(local *tensor.Tensor, g, sl, s, h int) (*tensor.Tensor, error) {
	tSize := w.t.Size()
	lens := make([]int, tSize)
	for i := range lens {
		lens[i] = g * sl * h
	}
	w.seq++
	flat, err := comm.AllGather(w.t, local.Data, lens, w.seq)
	if err != nil {
		return nil, err
	}
	full := tensor.New(g*s, h)
	for r := 0; r < tSize; r++ {
		part := flat[r*g*sl*h : (r+1)*g*sl*h]
		for gi := 0; gi < g; gi++ {
			dst := full.Data[(gi*s+r*sl)*h : (gi*s+(r+1)*sl)*h]
			copy(dst, part[gi*sl*h:(gi+1)*sl*h])
		}
	}
	return full, nil
}

// scatterSeq reduce-scatters a full [g·S, h] gradient so each rank receives
// the summed gradient for its own token slice.
func (w *Worker) scatterSeq(full *tensor.Tensor, g, sl, s, h int) (*tensor.Tensor, error) {
	tSize := w.t.Size()
	// rearrange to rank-major so ShardRanges aligns with rank slices
	rankMajor := make([]float32, g*s*h)
	for r := 0; r < tSize; r++ {
		for gi := 0; gi < g; gi++ {
			src := full.Data[(gi*s+r*sl)*h : (gi*s+(r+1)*sl)*h]
			copy(rankMajor[(r*g*sl+gi*sl)*h:(r*g*sl+(gi+1)*sl)*h], src)
		}
	}
	w.seq++
	shard, err := comm.ReduceScatterSum(w.t, rankMajor, w.seq)
	if err != nil {
		return nil, err
	}
	if len(shard) != g*sl*h {
		return nil, fmt.Errorf("sp: scatter shard size %d, want %d", len(shard), g*sl*h)
	}
	return tensor.FromSlice(shard, g*sl, h), nil
}
