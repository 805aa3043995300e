package nn

import (
	"math"
	"testing"
	"testing/quick"

	"weipipe/internal/tensor"
)

func TestRMSNormUnitGainNormalises(t *testing.T) {
	m := NewRMSNorm("n", 16)
	rng := tensor.NewRNG(1)
	x := tensor.New(4, 16)
	tensor.FillNormal(x, rng, 3)
	y := m.Forward(x, NewCache(1, 4))
	for i := 0; i < 4; i++ {
		var ss float64
		for _, v := range y.Data[i*16 : (i+1)*16] {
			ss += float64(v) * float64(v)
		}
		rms := math.Sqrt(ss / 16)
		if math.Abs(rms-1) > 1e-2 {
			t.Fatalf("row %d rms = %v, want ≈1", i, rms)
		}
	}
}

func TestRMSNormGainScales(t *testing.T) {
	m := NewRMSNorm("n", 4)
	m.Gain.Data[2] = 5
	x := tensor.New(1, 4)
	x.Fill(1)
	y := m.Forward(x, NewCache(1, 1))
	if math.Abs(float64(y.Data[2]/y.Data[0])-5) > 1e-5 {
		t.Fatalf("gain not applied: %v", y.Data)
	}
}

func TestRopeRoundTripAndNormPreservation(t *testing.T) {
	rope := NewRopeTable(16, 8)
	rng := tensor.NewRNG(2)
	q := tensor.New(16, 8)
	tensor.FillNormal(q, rng, 1)
	orig := q.Clone()

	rope.Apply(q)
	// rotation preserves per-position norm
	for pos := 0; pos < 16; pos++ {
		var a, b float64
		for i := 0; i < 8; i++ {
			a += float64(orig.Data[pos*8+i]) * float64(orig.Data[pos*8+i])
			b += float64(q.Data[pos*8+i]) * float64(q.Data[pos*8+i])
		}
		if math.Abs(a-b) > 1e-3 {
			t.Fatalf("pos %d: norm %v -> %v", pos, a, b)
		}
	}
	rope.ApplyInverse(q)
	for i := range q.Data {
		if math.Abs(float64(q.Data[i]-orig.Data[i])) > 1e-5 {
			t.Fatalf("round trip failed at %d: %v vs %v", i, q.Data[i], orig.Data[i])
		}
	}
}

func TestRopeRelativeProperty(t *testing.T) {
	// RoPE's defining property: dot(R_m q, R_n k) depends only on n−m.
	rope := NewRopeTable(32, 8)
	rng := tensor.NewRNG(3)
	q := tensor.New(1, 8)
	k := tensor.New(1, 8)
	tensor.FillNormal(q, rng, 1)
	tensor.FillNormal(k, rng, 1)

	dotAt := func(m, n int) float64 {
		buf := tensor.New(32, 8)
		for i := 0; i < 8; i++ {
			buf.Data[m*8+i] = q.Data[i]
		}
		buf2 := tensor.New(32, 8)
		for i := 0; i < 8; i++ {
			buf2.Data[n*8+i] = k.Data[i]
		}
		rope.Apply(buf)
		rope.Apply(buf2)
		var s float64
		for i := 0; i < 8; i++ {
			s += float64(buf.Data[m*8+i]) * float64(buf2.Data[n*8+i])
		}
		return s
	}
	d1 := dotAt(0, 3)
	d2 := dotAt(7, 10)
	d3 := dotAt(20, 23)
	if math.Abs(d1-d2) > 1e-3 || math.Abs(d1-d3) > 1e-3 {
		t.Fatalf("relative property violated: %v %v %v", d1, d2, d3)
	}
}

func TestRopeApplyAllMatchesPerHead(t *testing.T) {
	const S, heads, d = 4, 2, 6
	rope := NewRopeTable(S, d)
	rng := tensor.NewRNG(4)
	full := tensor.New(2*S, heads*d) // G=2
	tensor.FillNormal(full, rng, 1)
	want := full.Clone()

	// reference: gather each (g,h), rotate, scatter
	const width = heads * d
	for g := 0; g < 2; g++ {
		for h := 0; h < heads; h++ {
			buf := tensor.New(S, d)
			for i := 0; i < S; i++ {
				copy(buf.Data[i*d:(i+1)*d], want.Data[(g*S+i)*width+h*d:])
			}
			rope.Apply(buf)
			for i := 0; i < S; i++ {
				copy(want.Data[(g*S+i)*width+h*d:], buf.Data[i*d:(i+1)*d])
			}
		}
	}
	rope.ApplyAll(full, S, heads, 1)
	for i := range full.Data {
		if math.Abs(float64(full.Data[i]-want.Data[i])) > 1e-6 {
			t.Fatalf("ApplyAll mismatch at %d", i)
		}
	}
}

func TestAttentionCausality(t *testing.T) {
	// Changing the input at position j must not change outputs at positions
	// i < j (within the same sequence), and must not change the other
	// sequence in the batch at all.
	const H, heads, S, G = 8, 2, 6, 2
	rng := tensor.NewRNG(5)
	rope := NewRopeTable(S, H/heads)
	a := NewAttention("attn", H, heads, rope, rng)

	x := tensor.New(G*S, H)
	tensor.FillNormal(x, rng, 1)
	y1 := a.Forward(x, NewCache(G, S))

	x2 := x.Clone()
	const j = 3
	for c := 0; c < H; c++ {
		x2.Data[j*H+c] += 1.5 // perturb position j of sequence 0
	}
	y2 := a.Forward(x2, NewCache(G, S))

	for i := 0; i < S; i++ {
		var diff float64
		for c := 0; c < H; c++ {
			diff += math.Abs(float64(y1.Data[i*H+c] - y2.Data[i*H+c]))
		}
		if i < j && diff != 0 {
			t.Errorf("seq0 pos %d (< %d) changed by %v: causality broken", i, j, diff)
		}
		if i >= j && diff < 1e-7 {
			t.Errorf("seq0 pos %d (>= %d) unchanged: attention inert", i, j)
		}
	}
	// sequence 1 untouched
	for i := S; i < 2*S; i++ {
		for c := 0; c < H; c++ {
			if y1.Data[i*H+c] != y2.Data[i*H+c] {
				t.Fatalf("batch leakage at pos %d", i)
			}
		}
	}
}

// With every value vector equal to ones the context is a convex combination
// of ones whatever the scores are: each row's attention weights sum to one.
func TestAttentionWeightsSumToOne(t *testing.T) {
	const H, heads, S, G = 8, 2, 5, 2
	rng := tensor.NewRNG(6)
	a := NewAttention("attn", H, heads, nil, rng)
	x := tensor.New(G*S, H)
	tensor.FillNormal(x, rng, 1)
	// v = x·Wv = ones: x's first column is 1 and Wv's first row is ones.
	a.Wv.Zero()
	for c := 0; c < H; c++ {
		a.Wv.Data[c] = 1
	}
	for r := 0; r < G*S; r++ {
		x.Data[r*H] = 1
	}
	c := NewCache(G, S)
	a.Forward(x, c)
	for i, v := range c.Get("ctx").Data {
		if math.Abs(float64(v)-1) > 1e-6 {
			t.Fatalf("ctx[%d] = %v with all-ones values: weights do not sum to one", i, v)
		}
	}
}

func TestHeadUniformLossIsLogV(t *testing.T) {
	const H, V = 8, 11
	rng := tensor.NewRNG(7)
	o := NewOutputHead("head", H, V, rng)
	o.W.Zero() // zero logits → uniform distribution
	x := tensor.New(3, H)
	tensor.FillNormal(x, rng, 1)
	targets := [][]int{{1, 5, 9}}
	loss := o.ForwardLoss(x, targets, NewCache(1, 3))
	if math.Abs(loss-math.Log(V)) > 1e-5 {
		t.Fatalf("uniform loss = %v, want ln(%d) = %v", loss, V, math.Log(V))
	}
}

func TestHeadGradientSumsToZeroOverVocab(t *testing.T) {
	// softmax−onehot rows sum to 0, so dlogits rows must too.
	const H, V = 8, 7
	rng := tensor.NewRNG(8)
	o := NewOutputHead("head", H, V, rng)
	x := tensor.New(4, H)
	tensor.FillNormal(x, rng, 1)
	c := NewCache(1, 4)
	o.ForwardLoss(x, [][]int{{0, 1, 2, 3}}, c)
	o.BackwardFromLoss(c)
	dl := c.Get("dlogits")
	for r := 0; r < 4; r++ {
		var s float64
		for _, v := range dl.Data[r*V : (r+1)*V] {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("dlogits row %d sums to %v", r, s)
		}
	}
}

func TestEmbeddingLookupAndScatter(t *testing.T) {
	const V, H = 5, 3
	rng := tensor.NewRNG(9)
	e := NewEmbedding("emb", V, H, rng)
	c := NewCache(1, 2)
	out := e.ForwardTokens([][]int{{2, 2}}, c)
	for j := 0; j < H; j++ {
		if out.Data[j] != e.W.Data[2*H+j] || out.Data[H+j] != e.W.Data[2*H+j] {
			t.Fatalf("lookup wrong: %v", out.Data)
		}
	}
	// repeated token accumulates both rows of dy
	dy := tensor.New(2, H)
	dy.Fill(1)
	e.BackwardInput(dy, c)
	g := e.Params().NewLike()
	e.BackwardParams(c, g)
	dw := g.Get("w")
	for j := 0; j < H; j++ {
		if dw.Data[2*H+j] != 2 {
			t.Fatalf("scatter-add wrong: %v", dw.Data)
		}
	}
	// untouched rows stay zero
	if dw.Data[0] != 0 || dw.Data[4*H] != 0 {
		t.Fatal("grad leaked to unused rows")
	}
}

func TestParamSetFlattenRoundTrip(t *testing.T) {
	p := NewParamSet()
	a := tensor.New(2, 3)
	b := tensor.New(4)
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	for i := range b.Data {
		b.Data[i] = float32(10 + i)
	}
	p.Add("a", a)
	p.Add("b", b)
	if p.Size() != 10 {
		t.Fatalf("Size = %d", p.Size())
	}
	flat := p.Flatten()
	q := p.NewLike()
	q.SetFlat(flat)
	if q.MaxAbsDiff(p) != 0 {
		t.Fatal("SetFlat(Flatten) not identity")
	}
	q.AddFlat(flat)
	want := p.Clone()
	want.Scale(2)
	if q.MaxAbsDiff(want) != 0 {
		t.Fatal("AddFlat wrong")
	}
}

func TestParamSetFlattenOrderIsDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		mk := func() *ParamSet {
			b := NewBlock("b", 8, 2, 12, nil, tensor.NewRNG(seed))
			_ = rng
			return b.Params()
		}
		p1, p2 := mk(), mk()
		f1, f2 := p1.Flatten(), p2.Flatten()
		for i := range f1 {
			if f1[i] != f2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockParamsAliasSubLayers(t *testing.T) {
	rng := tensor.NewRNG(10)
	b := NewBlock("b", 8, 2, 12, nil, rng)
	flat := b.Params().Flatten()
	for i := range flat {
		flat[i] += 1
	}
	b.Params().SetFlat(flat)
	// Wq must have moved
	if b.Attn.Wq.Data[0] == 0 {
		t.Skip("unlikely zero")
	}
	got := b.Params().Flatten()
	for i := range got {
		if got[i] != flat[i] {
			t.Fatal("SetFlat did not propagate to sub-layers")
		}
	}
}

func TestCacheSubAndTake(t *testing.T) {
	c := NewCache(2, 3)
	if c.Tokens() != 6 {
		t.Fatalf("Tokens = %d", c.Tokens())
	}
	s1 := c.Sub("a")
	s2 := c.Sub("a")
	if s1 != s2 {
		t.Fatal("Sub must return the same child")
	}
	x := tensor.New(1)
	c.Put("k", x)
	if !c.Has("k") {
		t.Fatal("Has false after Put")
	}
	if c.Take("k") != x {
		t.Fatal("Take returned wrong tensor")
	}
	if c.Has("k") {
		t.Fatal("Take did not remove")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get on missing key did not panic")
		}
	}()
	c.Get("k")
}
