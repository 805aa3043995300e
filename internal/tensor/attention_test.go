package tensor

import (
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// naiveAttention is the O(S²) reference the tiled kernel is checked against:
// the full masked score matrix, a max-subtracted softmax and both matmuls,
// all in float64. It returns out and, given dout, the three input gradients.
func naiveAttention(q, k, v, dout *Tensor, heads, sq, sk, qOff int) (out, dq, dk, dv *Tensor) {
	width := q.Cols()
	d := width / heads
	g := q.Rows() / sq
	scale := 1 / math.Sqrt(float64(d))
	out, dq = New(g*sq, width), New(g*sq, width)
	dk, dv = New(g*sk, width), New(g*sk, width)
	at := func(t *Tensor, row, col int) float64 { return float64(t.Data[row*width+col]) }
	p := make([]float64, sk)
	for gi := 0; gi < g; gi++ {
		for hi := 0; hi < heads; hi++ {
			c0 := hi * d
			for i := 0; i < sq; i++ {
				qi := gi*sq + i
				n := min(qOff+i+1, sk)
				maxv := math.Inf(-1)
				for j := 0; j < n; j++ {
					var s float64
					for c := 0; c < d; c++ {
						s += at(q, qi, c0+c) * at(k, gi*sk+j, c0+c)
					}
					p[j] = s * scale
					maxv = math.Max(maxv, p[j])
				}
				var sum float64
				for j := 0; j < n; j++ {
					p[j] = math.Exp(p[j] - maxv)
					sum += p[j]
				}
				o := make([]float64, d)
				for j := 0; j < n; j++ {
					p[j] /= sum
					for c := 0; c < d; c++ {
						o[c] += p[j] * at(v, gi*sk+j, c0+c)
					}
				}
				for c := 0; c < d; c++ {
					out.Data[qi*width+c0+c] = float32(o[c])
				}
				if dout == nil {
					continue
				}
				// dp_j = dout_i·v_j; ds = p ⊙ (dp − Σ p·dp).
				dp := make([]float64, n)
				var dot float64
				for j := 0; j < n; j++ {
					for c := 0; c < d; c++ {
						dp[j] += at(dout, qi, c0+c) * at(v, gi*sk+j, c0+c)
					}
					dot += p[j] * dp[j]
				}
				for j := 0; j < n; j++ {
					ds := p[j] * (dp[j] - dot) * scale
					kj := gi*sk + j
					for c := 0; c < d; c++ {
						dq.Data[qi*width+c0+c] += float32(ds * at(k, kj, c0+c))
						dk.Data[kj*width+c0+c] += float32(ds * at(q, qi, c0+c))
						dv.Data[kj*width+c0+c] += float32(p[j] * at(dout, qi, c0+c))
					}
				}
			}
		}
	}
	return out, dq, dk, dv
}

type attnShape struct{ g, heads, d, sq, sk, qOff int }

func (s attnShape) String() string {
	return fmt.Sprintf("G%d_h%d_d%d_sq%d_sk%d_off%d", s.g, s.heads, s.d, s.sq, s.sk, s.qOff)
}

// eachBackend runs fn once per registered backend, as a subtest with that
// backend selected: the attention invariants hold per backend, not just for
// whichever one is the default on this machine.
func eachBackend(t *testing.T, fn func(t *testing.T)) {
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) { withBackend(t, name, func() { fn(t) }) })
	}
}

// attnInputs draws q, k, v and dout for a shape; spread scales the scores so
// the softmax ranges from near-uniform to near-one-hot.
func attnInputs(s attnShape, seed uint64, spread float64) (q, k, v, dout *Tensor) {
	rng := NewRNG(seed)
	width := s.heads * s.d
	q, dout = New(s.g*s.sq, width), New(s.g*s.sq, width)
	k, v = New(s.g*s.sk, width), New(s.g*s.sk, width)
	FillNormal(q, rng, spread)
	FillNormal(k, rng, spread)
	FillNormal(v, rng, 1)
	FillNormal(dout, rng, 1)
	return
}

// runAttention runs the kernel pair under test on one shape.
func runAttention(s attnShape, q, k, v, dout *Tensor) (out, lse, dq, dk, dv *Tensor) {
	width := s.heads * s.d
	out, dq = New(s.g*s.sq, width), New(s.g*s.sq, width)
	dk, dv = New(s.g*s.sk, width), New(s.g*s.sk, width)
	lse = New(s.g * s.heads * s.sq)
	// The kernel owns its outputs: stale contents must not leak through.
	for _, t := range []*Tensor{out, dq, dk, dv, lse} {
		t.Fill(float32(math.NaN()))
	}
	CausalAttention(out, lse, q, k, v, s.heads, s.sq, s.sk, s.qOff)
	CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, s.heads, s.sq, s.sk, s.qOff)
	return
}

func maxAbsDiff(a, b *Tensor) float64 {
	var worst float64
	for i := range a.Data {
		diff := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if diff > worst || diff != diff {
			worst = diff
		}
	}
	return worst
}

func maxAbs(t *Tensor) float64 {
	var worst float64
	for _, v := range t.Data {
		worst = math.Max(worst, math.Abs(float64(v)))
	}
	return worst
}

// attnTol is the max-abs bound of the equivalence suite, relative to the
// largest reference element (or 1, if that is larger): the float64 reference
// rounded to float32 against float32 online-softmax arithmetic, sums of up
// to a few hundred terms.
const attnTol = 2e-5

func checkAttentionAgainstNaive(t testing.TB, s attnShape, seed uint64, spread float64) {
	t.Helper()
	q, k, v, dout := attnInputs(s, seed, spread)
	out, _, dq, dk, dv := runAttention(s, q, k, v, dout)
	wantOut, wantDq, wantDk, wantDv := naiveAttention(q, k, v, dout, s.heads, s.sq, s.sk, s.qOff)
	for _, c := range []struct {
		name      string
		got, want *Tensor
	}{{"out", out, wantOut}, {"dq", dq, wantDq}, {"dk", dk, wantDk}, {"dv", dv, wantDv}} {
		bound := attnTol * math.Max(1, maxAbs(c.want))
		if diff := maxAbsDiff(c.got, c.want); !(diff <= bound) {
			t.Errorf("%v seed %d spread %g: %s off by %g (bound %g)", s, seed, spread, c.name, diff, bound)
		}
	}
}

func TestCausalAttentionMatchesNaive(t *testing.T) {
	shapes := []attnShape{
		{1, 1, 4, 1, 1, 0},                             // S = 1
		{1, 1, 8, 7, 7, 0},                             // S < both tiles
		{2, 4, 64, 8, 8, 0},                            // the wide-* shape
		{1, 2, 5, attnTileQ - 1, attnTileQ - 1, 0},     // odd d, tile − 1
		{1, 1, 4, attnTileQ, attnTileQ, 0},             // exactly one query tile
		{1, 1, 3, attnTileQ + 1, attnTileQ + 1, 0},     // tile + 1
		{1, 2, 8, attnTileK - 1, attnTileK - 1, 0},     // key tile − 1
		{1, 1, 8, attnTileK, attnTileK, 0},             // exactly one key tile
		{2, 3, 7, attnTileK + 1, attnTileK + 1, 0},     // key tile + 1, G > 1, heads > 1
		{1, 2, 16, 200, 200, 0},                        // several tiles each way, ragged
		{2, 2, 6, 10, 40, 30},                          // last query slice of longer keys
		{1, 2, 4, 33, 4*attnTileK + 5, attnTileK + 9},  // middle slice: keys beyond every row
		{1, 1, 8, 40, 20, 0},                           // sk < sq: late rows all see every key
		{1, 2, 24, 70, 70, 0},                          // d = 16 + 8: both column-group widths
		{1, 1, 64, 40, 40, 0},                          // d = 64, several rows per tile
		{2, 2, 16, attnTileK + 9, 2*attnTileK + 3, 50}, // d = 16, G > 1, offset, sk ≠ sq
		{1, 2, 13, 45, 45, 0},                          // d = 8 + 5: vector body and scalar tail
	}
	eachBackend(t, func(t *testing.T) {
		for _, s := range shapes {
			t.Run(s.String(), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					checkAttentionAgainstNaive(t, s, seed, 1)
				}
				checkAttentionAgainstNaive(t, s, 9, 3) // peaked softmax: big score range
			})
		}
	})
}

// FuzzCausalAttentionEquivalence checks random shapes, offsets and score
// ranges against the naive reference.
func FuzzCausalAttentionEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(2), uint8(8), uint16(40), uint16(0), uint16(0), uint8(10))
	f.Add(uint64(2), uint8(2), uint8(3), uint8(5), uint16(attnTileK+1), uint16(17), uint16(9), uint8(30))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint16(1), uint16(0), uint16(300), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, g, heads, d uint8, sq, extraKeys, qOff uint16, spread uint8) {
		s := attnShape{
			g: 1 + int(g%2), heads: 1 + int(heads%3), d: 1 + int(d%36),
			sq: 1 + int(sq%150), qOff: int(qOff % 150),
		}
		// Keys cover at least the first query's position; any surplus may
		// lie beyond the last query.
		s.sk = s.qOff + 1 + int(extraKeys)%(s.sq+20)
		eachBackend(t, func(t *testing.T) {
			checkAttentionAgainstNaive(t, s, seed, 0.1+float64(spread%40)/10)
		})
	})
}

// With v all ones every output is a convex combination of ones: the
// probabilities of every row sum to one and no masked key carries weight.
func TestCausalAttentionRowsAreConvexCombinations(t *testing.T) {
	eachBackend(t, func(t *testing.T) {
		s := attnShape{2, 2, 24, 150, 150, 0}
		q, k, v, dout := attnInputs(s, 4, 2)
		v.Fill(1)
		out, _, _, _, _ := runAttention(s, q, k, v, dout)
		for i, x := range out.Data {
			if math.Abs(float64(x)-1) > 1e-6 {
				t.Fatalf("out[%d] = %v with v = ones: probabilities do not sum to one", i, x)
			}
		}
	})
}

// Perturbing tokens after position i must leave row i bitwise unchanged:
// masked keys are never read, whatever tile they share with visible ones.
func TestCausalAttentionIgnoresFutureTokensBitwise(t *testing.T) {
	eachBackend(t, func(t *testing.T) {
		s := attnShape{1, 2, 24, 150, 150, 0}
		q, k, v, dout := attnInputs(s, 5, 1)
		out1, lse1, _, _, _ := runAttention(s, q, k, v, dout)
		const from = 70
		width := s.heads * s.d
		for i := from * width; i < len(k.Data); i++ {
			q.Data[i] += 1.5
			k.Data[i] -= 2.5
			v.Data[i] *= -3
		}
		out2, lse2, _, _, _ := runAttention(s, q, k, v, dout)
		for i := 0; i < from*width; i++ {
			if math.Float32bits(out1.Data[i]) != math.Float32bits(out2.Data[i]) {
				t.Fatalf("out[%d] (row %d < %d) changed: %v vs %v", i, i/width, from, out1.Data[i], out2.Data[i])
			}
		}
		var moved bool
		for i := from * width; i < len(out1.Data); i++ {
			moved = moved || out1.Data[i] != out2.Data[i]
		}
		if !moved {
			t.Fatal("rows at and after the perturbation did not move: attention inert")
		}
		for hi := 0; hi < s.heads; hi++ {
			for r := 0; r < from; r++ {
				if lse1.Data[hi*s.sq+r] != lse2.Data[hi*s.sq+r] {
					t.Fatalf("lse head %d row %d changed", hi, r)
				}
			}
		}
	})
}

// A non-finite future token is outside the finite-operand precondition of
// CausalAttention, and this pins what is still guaranteed there. An Exact
// backend never reads a masked row, so earlier rows stay bitwise unchanged.
// The GEMM-tiled backends multiply a masked key by a zero coefficient, and
// 0·Inf = 0·NaN = NaN: rows of the poisoned token's own query tile may turn
// non-finite, but no earlier row ever takes a finite value other than the
// clean run's, rows of earlier query tiles are untouched, and the poisoned
// token's own row is non-finite — so the step that carries it trips the
// trainers' non-finite gradient guard whichever rows the NaN reached.
func TestCausalAttentionNonFiniteFutureToken(t *testing.T) {
	eachBackend(t, func(t *testing.T) {
		s := attnShape{1, 2, 24, 150, 150, 0}
		q, k, v, dout := attnInputs(s, 5, 1)
		out1, lse1, dq1, _, _ := runAttention(s, q, k, v, dout)
		const from = 70 // inside the query tile that starts at row 64
		tileStart := from / attnTileQ * attnTileQ
		width := s.heads * s.d
		for c := 0; c < width; c++ {
			k.Data[from*width+c] = float32(math.Inf(1))
			v.Data[from*width+c] = float32(math.NaN())
		}
		out2, lse2, dq2, _, _ := runAttention(s, q, k, v, dout)

		finite := func(x float32) bool { return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) }
		same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
		exact := current().Exact()
		for _, pair := range []struct {
			name        string
			clean, pois *Tensor
		}{{"out", out1, out2}, {"dq", dq1, dq2}} {
			for i := 0; i < from*width; i++ {
				c, p := pair.clean.Data[i], pair.pois.Data[i]
				switch row := i / width; {
				case same(c, p):
				case exact || row < tileStart:
					t.Fatalf("%s[%d] (row %d) changed: %v vs %v", pair.name, i, row, c, p)
				case finite(p):
					t.Fatalf("%s[%d] (row %d, the poisoned token's tile) is finite but wrong: %v vs %v", pair.name, i, row, c, p)
				}
			}
		}
		for hi := 0; hi < s.heads; hi++ {
			for r := 0; r < from; r++ {
				if !same(lse1.Data[hi*s.sq+r], lse2.Data[hi*s.sq+r]) {
					t.Fatalf("lse head %d row %d changed", hi, r)
				}
			}
		}
		for c := 0; c < width; c++ {
			if finite(out2.Data[from*width+c]) {
				t.Fatalf("out[%d,%d] of the poisoned token is finite (%v): the step would pass the non-finite guard", from, c, out2.Data[from*width+c])
			}
		}
	})
}

// A query slice against the full keys must reproduce the same rows of full
// self-attention bit for bit: per-row results depend neither on the query
// tile a row lands in nor on how many later rows exist.
func TestCausalAttentionQuerySliceMatchesFullBitwise(t *testing.T) {
	eachBackend(t, func(t *testing.T) {
		full := attnShape{1, 2, 24, 150, 150, 0}
		q, k, v, dout := attnInputs(full, 6, 1)
		outFull, lseFull, _, _, _ := runAttention(full, q, k, v, dout)
		const off, sl = 50, 45 // neither a multiple of a tile size
		part := attnShape{1, 2, 24, sl, 150, off}
		outPart, lsePart, _, _, _ := runAttention(part, q.SliceRows(off, off+sl), k, v, dout.SliceRows(off, off+sl))
		want := outFull.SliceRows(off, off+sl)
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(outPart.Data[i]) {
				t.Fatalf("slice out[%d] = %v, full run has %v", i, outPart.Data[i], want.Data[i])
			}
		}
		for hi := 0; hi < full.heads; hi++ {
			for r := 0; r < sl; r++ {
				if lsePart.Data[hi*sl+r] != lseFull.Data[hi*full.sq+off+r] {
					t.Fatalf("slice lse head %d row %d differs from the full run", hi, r)
				}
			}
		}
	})
}

// Attention results must be bitwise identical regardless of worker count:
// a work item owns its outputs and accumulates in a shape-determined order.
func TestCausalAttentionBitwiseIdenticalAcrossWorkerCounts(t *testing.T) {
	eachBackend(t, func(t *testing.T) {
		s := attnShape{2, 3, 24, 180, 180, 0}
		if s.g*s.heads*s.sq*s.sk*s.d < splitThreshold(16, true) {
			t.Fatal("test shape below the simd split threshold; enlarge it")
		}
		q, k, v, dout := attnInputs(s, 7, 1)
		run := func(workers int) []*Tensor {
			prev := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(prev)
			out, lse, dq, dk, dv := runAttention(s, q, k, v, dout)
			return []*Tensor{out, lse, dq, dk, dv}
		}
		names := []string{"out", "lse", "dq", "dk", "dv"}
		base := run(1)
		for _, workers := range []int{2, 4, 7} {
			got := run(workers)
			for ti, name := range names {
				for i := range base[ti].Data {
					b0, bN := math.Float32bits(base[ti].Data[i]), math.Float32bits(got[ti].Data[i])
					if b0 != bN {
						t.Fatalf("%s elem %d differs between 1 and %d workers: %08x vs %08x", name, i, workers, b0, bN)
					}
				}
			}
		}
	})
}

// Both attention dispatch paths — inline and pooled — must not allocate.
func TestCausalAttentionZeroAlloc(t *testing.T) {
	eachBackend(t, func(t *testing.T) {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
		for _, s := range []attnShape{{1, 2, 8, 8, 8, 0}, {1, 4, 16, 256, 256, 0}} {
			pooled := s.g*s.heads*s.sq*s.sk*s.d >= splitThreshold(16, true)
			q, k, v, dout := attnInputs(s, 8, 1)
			out, lse, dq, dk, dv := runAttention(s, q, k, v, dout)
			allocs := testing.AllocsPerRun(5, func() {
				CausalAttention(out, lse, q, k, v, s.heads, s.sq, s.sk, s.qOff)
				CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, s.heads, s.sq, s.sk, s.qOff)
			})
			if allocs != 0 {
				t.Errorf("%v (pooled=%v): %v allocs per fwd+bwd, want 0", s, pooled, allocs)
			}
		}
	})
}

func TestCausalAttentionRejectsBadShapes(t *testing.T) {
	q, k := New(8, 6), New(8, 6)
	for name, fn := range map[string]func(){
		"heads do not divide width": func() { CausalAttention(New(8, 6), New(32), q, k, k, 4, 8, 8, 0) },
		"lse size":                  func() { CausalAttention(New(8, 6), New(8), q, k, k, 2, 8, 8, 0) },
		"k rows":                    func() { CausalAttention(New(8, 6), New(16), q, k, k, 2, 8, 4, 0) },
		"negative offset":           func() { CausalAttention(New(8, 6), New(16), q, k, k, 2, 8, 8, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func ulpDiff(a, b float32) uint32 {
	x, y := math.Float32bits(a), math.Float32bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// checkExpAccuracy holds f to expNeg's contract: against the float64 library
// exp rounded to float32 over every 509th float32 in [−104, 0] plus the
// neighbourhoods of the special points — within 2 ULP, exactly 1 at 0,
// exactly 0 below expUnderflow and at −Inf, NaN propagated, monotone.
func checkExpAccuracy(t *testing.T, f func(float32) float32) {
	if got := f(0); got != 1 {
		t.Fatalf("exp(0) = %v, want exactly 1", got)
	}
	for _, x := range []float32{float32(math.Inf(-1)), -104, -88, math.Nextafter32(expUnderflow, -1000)} {
		if got := f(x); got != 0 {
			t.Fatalf("exp(%v) = %v, want exactly 0 below underflow", x, got)
		}
	}
	if got := f(float32(math.NaN())); got == got {
		t.Fatalf("exp(NaN) = %v, want NaN", got)
	}
	if lo := f(expUnderflow); lo <= 0 || lo > 1.2e-38 {
		t.Fatalf("exp(expUnderflow) = %g, want the smallest normal's neighbourhood", lo)
	}

	check := func(x, prevVal float32) float32 {
		got := f(x)
		if x < expUnderflow {
			if got != 0 {
				t.Fatalf("exp(%v) = %g, want 0", x, got)
			}
			return got
		}
		want := float32(math.Exp(float64(x)))
		if d := ulpDiff(got, want); d > 2 {
			t.Fatalf("exp(%v) = %g, want %g (%d ULP)", x, got, want, d)
		}
		if got < prevVal {
			t.Fatalf("exp not monotone at %v: %g after %g", x, got, prevVal)
		}
		return got
	}
	// Positive float32 bit patterns order like the values, so stepping the
	// bits of −x downward walks x upward from −104 to −0.
	const stride = 509
	var prev float32
	for bits := math.Float32bits(104); ; bits -= stride {
		prev = check(-math.Float32frombits(bits), prev)
		if bits < stride {
			break
		}
	}
	// Every float32 around each reduction boundary (n + ½)·ln2, where the
	// polynomial argument jumps between ±ln2/2, and near 0 and the flush.
	for n := 0; n <= 126; n++ {
		centre := -float32((float64(n) + 0.5) * math.Ln2)
		x := centre
		for i := 0; i < 200; i++ {
			x = math.Nextafter32(x, -1000)
		}
		var p float32
		for i := 0; i < 400; i++ {
			if x <= 0 {
				p = check(x, p)
			}
			x = math.Nextafter32(x, 1000)
		}
	}
}

func TestExpNegAccuracy(t *testing.T) { checkExpAccuracy(t, expNeg) }

// The scalar backend is the bit-exactness oracle: its attention results on
// fixed inputs are pinned to what the kernel produced before the SIMD leaves
// existed, so the oracle provably did not move.
func TestScalarAttentionGolden(t *testing.T) {
	const golden = 0x62c96080
	crc := uint32(0)
	withBackend(t, "scalar", func() {
		for _, s := range []attnShape{
			{2, 3, 7, attnTileK + 1, attnTileK + 1, 0},
			{1, 2, 16, 200, 200, 0},
			{2, 2, 6, 10, 40, 30},
			{1, 4, 64, 8, 8, 0},
		} {
			q, k, v, dout := attnInputs(s, 11, 1.5)
			out, lse, dq, dk, dv := runAttention(s, q, k, v, dout)
			for _, t := range []*Tensor{out, lse, dq, dk, dv} {
				for _, x := range t.Data {
					b := math.Float32bits(x)
					crc = crc32.Update(crc, crc32.IEEETable, []byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
				}
			}
		}
	})
	if crc != golden {
		t.Fatalf("scalar attention CRC = %#08x, want %#08x: the oracle moved", crc, golden)
	}
}

func BenchmarkCausalAttention(b *testing.B) {
	for _, s := range []attnShape{{1, 4, 16, 512, 512, 0}, {1, 4, 64, 8, 8, 0}} {
		q, k, v, dout := attnInputs(s, 1, 1)
		out, lse, dq, dk, dv := runAttention(s, q, k, v, dout)
		for _, bk := range Backends() {
			bk, _ := BackendByName(bk)
			b.Run("fwd/"+s.String()+"/"+bk.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.CausalAttention(out, lse, q, k, v, s.heads, s.sq, s.sk, s.qOff)
				}
			})
			b.Run("bwd/"+s.String()+"/"+bk.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bk.CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse, s.heads, s.sq, s.sk, s.qOff)
				}
			})
		}
	}
}

// BenchmarkAttnSoftmaxTile times the walk's softmax step on one tile at
// the long-* shape's geometry (d 16): a full 32×64 tile whose rows see all
// 64 keys and a diagonal one whose rows see 33…64, forward (softmaxTile,
// with running maxima half a unit below the rows' own so that every row
// rescales) and backward (softmaxGradTile), on every backend. Each
// iteration first restores the tile's inputs, a copy of about 10 KB.
func BenchmarkAttnSoftmaxTile(b *testing.B) {
	const d = 16
	rng := NewRNG(1)
	src, dp, out0 := New(attnTileQ*attnTileK), New(attnTileQ*attnTileK), New(3*attnTileQ*d)
	FillNormal(src, rng, 2)
	FillNormal(dp, rng, 1)
	FillNormal(out0, rng, 1)
	s, ds, out := New(attnTileQ*attnTileK), New(attnTileQ*attnTileK), New(3*attnTileQ*d)
	for _, bk := range Backends() {
		w := map[string]lanes{"avx2": 8, "avx512": 16}[bk]
		a := &attnArgs{simd: w, heads: 1, d: d, sq: 3 * attnTileQ, sk: 3 * attnTileQ, scale: 0.25}
		for _, tc := range []struct {
			name string
			t    attnTile
		}{
			{"full", a.tile(2*attnTileQ, 3*attnTileQ, 0, attnTileK)},
			{"diagonal", a.tile(attnTileQ, 2*attnTileQ, 0, attnTileK)},
		} {
			var m0, l0, lse, delta [attnTileQ]float32
			for r := tc.t.rlo; r < tc.t.i1; r++ {
				top := rowMax(src.Data[(r-tc.t.i0)*attnTileK:][:a.visible(tc.t, r)])
				m0[r-tc.t.i0], l0[r-tc.t.i0], lse[r-tc.t.i0] = top-0.5, 3, top+2
				delta[r-tc.t.i0] = 0.1
			}
			b.Run("fwd/"+tc.name+"/"+bk, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(s.Data, src.Data)
					copy(out.Data, out0.Data)
					m, l := m0, l0
					a.softmaxTile(s.Data, &m, &l, out.Data, tc.t)
				}
			})
			b.Run("bwd/"+tc.name+"/"+bk, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(s.Data, src.Data)
					copy(ds.Data, dp.Data)
					a.softmaxGradTile(s.Data, ds.Data, lse[:], &delta, tc.t)
				}
			})
		}
	}
}
