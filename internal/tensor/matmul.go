package tensor

import "fmt"

// parallelThreshold is the multiply-add count below which a scalar-kernel
// matmul runs on the calling goroutine; splitThreshold scales it to the
// other kernel classes. A split hands all but the first chunk to pool
// workers and waits for them, so it wins only when the work it gives away
// outlasts the hand-off — waking a parked worker, which on the benchmark's
// host class (2 vCPUs, GOMAXPROCS 2) takes about as long as 100 µs of
// kernel: measured there, every kernel class breaks even where its serial
// run is 200–300 µs, and below that a split costs 0–10 % (the worker often
// only starts when the caller parks). What the dispatcher can see is the
// work count and the class, so the threshold is that time in each class's
// units (DESIGN.md §8 has the split-vs-serial table):
//
//	scalar matmul   ~4.5 multiply-adds/ns   1<<20   (524 K: 125 µs serial, 126 split; 1.4 M NT: 312 → 202)
//	simd matmul     35–60 multiply-adds/ns  1<<23   (5.6 M NN: 90 → 92, NT 108 → 121; 11 M: 216 → 205, NT 242 → 258; 16.8 M: 349 → 248)
//	  at 16 lanes   60–100 multiply-adds/ns 1<<24   (8.4 M NN: 100 → 121; 16.8 M: 201 → 224, TN 209 → 229; 22.5 M: 323 → 308; 33.6 M: 426 → 354)
//	scalar attn     1–2 units/ns            1<<19   (S 64: 144 → 156 fwd; S 96: 317 → 266)
//	simd attn       9–16 units/ns           1<<22   (S 192: 165 → 168 fwd; S 256: 276 → 227 fwd, 471 → 335 bwd)
//
// (an attention unit is one g·heads·sq·sk·d step: a causal forward spends
// about one multiply-add plus its share of the exponential on it, a backward
// about 2.5; attention gains nothing from the wider GEMM panels — its row
// leaves bound it — so its threshold does not know the width). The PR-1
// value, 1<<17 for everything, predates all of these kernels.
const parallelThreshold = 1 << 20

// lanes is the vector width a kernel invocation runs on, in float32 lanes:
// none selects the pure-Go kernels, 8 the AVX2 set, 16 the AVX2 set with the
// GEMM micro-kernel's whole panels of rows on AVX-512 (gemm, simd_amd64.go).
type lanes uint8

// splitThreshold is the work count from which a dispatch of the given
// kernel class goes to the pool.
func splitThreshold(simd lanes, attn bool) int {
	t := parallelThreshold
	if simd > 0 {
		t <<= 3
	}
	switch {
	case attn:
		t >>= 1
	case simd == 16:
		t <<= 1
	}
	return t
}

// blockK is the k-panel size of the cache-blocked scalar NN/TN kernels, and
// of the b panel the simd NT kernel transposes.
const blockK = 64

// blockN is the j-block width of the NN/TN kernels: the dst row segment and
// the four active b row segments stay resident in L1 while a k panel streams.
const blockN = 256

// MatMul computes dst = a·b where a is [m,k] and b is [k,n] under the
// canonical 2-D views. dst must be [m,n] and must not alias a or b.
func MatMul(dst, a, b *Tensor) { current().MatMulNN(dst, a, b, false) }

// MatMulAcc computes dst += a·b.
func MatMulAcc(dst, a, b *Tensor) { current().MatMulNN(dst, a, b, true) }

// MatMulTB computes dst = a·bᵀ where a is [m,k] and b is [n,k]. dst must be
// [m,n] and must not alias a or b. This is the shape of dX = dY·Wᵀ with W
// stored [in,out], and of attention scores Q·Kᵀ.
func MatMulTB(dst, a, b *Tensor) { current().MatMulNT(dst, a, b, false) }

// MatMulTBAcc computes dst += a·bᵀ.
func MatMulTBAcc(dst, a, b *Tensor) { current().MatMulNT(dst, a, b, true) }

// MatMulTA computes dst = aᵀ·b where a is [k,m] and b is [k,n]. dst must be
// [m,n] and must not alias a or b. This is the shape of dW = Xᵀ·dY.
func MatMulTA(dst, a, b *Tensor) { current().MatMulTN(dst, a, b, false) }

// MatMulTAAcc computes dst += aᵀ·b.
func MatMulTAAcc(dst, a, b *Tensor) { current().MatMulTN(dst, a, b, true) }

// mmKind selects the concrete kernel of a dispatched matmul.
type mmKind uint8

const (
	mmNN mmKind = iota
	mmNT
	mmTN
)

// mmArgs carries a kernel invocation by value through the worker pool, so a
// dispatch allocates nothing: no closures are formed and the tensor data is
// referenced through plain slices.
type mmArgs struct {
	kind       mmKind
	acc        bool
	simd       lanes
	ad, bd, dd []float32
	m, n, k    int
}

// run executes the kernel over dst rows [lo, hi). Every dst element is
// produced by a fixed-order accumulation that depends only on the shapes
// and the selected backend, never on the chunking, so parallel and serial
// runs are bitwise identical.
//
// The simd range kernels are statically linked (build-tagged stubs fall
// back to the scalar kernels) rather than dispatched through function
// values: a function-value call would make g escape and put one heap
// allocation back on every matmul.
func (g *mmArgs) run(lo, hi int) {
	if g.simd > 0 {
		switch g.kind {
		case mmNN:
			simdNNRange(g, lo, hi)
		case mmNT:
			simdNTRange(g, lo, hi)
		case mmTN:
			simdTNRange(g, lo, hi)
		}
		return
	}
	switch g.kind {
	case mmNN:
		mmNNRange(g, lo, hi)
	case mmNT:
		mmNTRange(g, lo, hi)
	case mmTN:
		mmTNRange(g, lo, hi)
	}
}

func matmulNN(dst, a, b *Tensor, acc bool, simd lanes) {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 || dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v -> %v", a.shape, b.shape, dst.shape))
	}
	args := mmArgs{kind: mmNN, acc: acc, simd: simd, ad: a.Data, bd: b.Data, dd: dst.Data, m: m, n: n, k: k}
	dispatch(&args, m, m*n*k)
}

func matmulNT(dst, a, b *Tensor, acc bool, simd lanes) {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 || dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulTB shapes %v x %vᵀ -> %v", a.shape, b.shape, dst.shape))
	}
	args := mmArgs{kind: mmNT, acc: acc, simd: simd, ad: a.Data, bd: b.Data, dd: dst.Data, m: m, n: n, k: k}
	dispatch(&args, m, m*n*k)
}

func matmulTN(dst, a, b *Tensor, acc bool, simd lanes) {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 || dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulTA shapes %vᵀ x %v -> %v", a.shape, b.shape, dst.shape))
	}
	// Parallelise over output rows (columns of a) so workers never write the
	// same dst element.
	args := mmArgs{kind: mmTN, acc: acc, simd: simd, ad: a.Data, bd: b.Data, dd: dst.Data, m: m, n: n, k: k}
	dispatch(&args, m, m*n*k)
}

// mmNNRange is a j-blocked i-k-j kernel with a 4-wide k unroll: each pass
// folds four b rows into the dst row segment, quartering dst load/store
// traffic versus the scalar i-k-j loop. The per-element accumulation order
// stays ascending in k (Go's left-associative +), matching the scalar loop.
func mmNNRange(g *mmArgs, lo, hi int) {
	ad, bd, dd := g.ad, g.bd, g.dd
	n, k := g.n, g.k
	if !g.acc {
		for i := lo; i < hi; i++ {
			row := dd[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := j0 + blockN
		if j1 > n {
			j1 = n
		}
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := k0 + blockK
			if k1 > k {
				k1 = k
			}
			for i := lo; i < hi; i++ {
				arow := ad[i*k : (i+1)*k]
				drow := dd[i*n+j0 : i*n+j1]
				p := k0
				for ; p+3 < k1; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					b0 := bd[p*n+j0 : p*n+j1]
					b1 := bd[(p+1)*n+j0 : (p+1)*n+j1]
					b2 := bd[(p+2)*n+j0 : (p+2)*n+j1]
					b3 := bd[(p+3)*n+j0 : (p+3)*n+j1]
					b0 = b0[:len(drow)]
					b1 = b1[:len(drow)]
					b2 = b2[:len(drow)]
					b3 = b3[:len(drow)]
					for j := range drow {
						drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; p < k1; p++ {
					av := arow[p]
					brow := bd[p*n+j0 : p*n+j1]
					brow = brow[:len(drow)]
					for j := range drow {
						drow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// mmNTRange computes a·bᵀ as row-dot-row products, four b rows at a time:
// one pass over the a row feeds four independent accumulator chains (one per
// j column), so each a element loaded is reused across four dot products and
// the chains hide each other's add latency. Quad columns accumulate in
// ascending k with a single chain; the j remainder falls back to a
// 4-accumulator strided dot. Which path an element takes — and therefore its
// combine order — depends only on the shapes, never on the worker chunking.
func mmNTRange(g *mmArgs, lo, hi int) {
	ad, bd, dd := g.ad, g.bd, g.dd
	n, k := g.n, g.k
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		drow := dd[i*n : (i+1)*n]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := bd[j*k : (j+1)*k]
			b1 := bd[(j+1)*k : (j+2)*k]
			b2 := bd[(j+2)*k : (j+3)*k]
			b3 := bd[(j+3)*k : (j+4)*k]
			b0 = b0[:len(arow)]
			b1 = b1[:len(arow)]
			b2 = b2[:len(arow)]
			b3 = b3[:len(arow)]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if g.acc {
				drow[j] += s0
				drow[j+1] += s1
				drow[j+2] += s2
				drow[j+3] += s3
			} else {
				drow[j] = s0
				drow[j+1] = s1
				drow[j+2] = s2
				drow[j+3] = s3
			}
		}
		for ; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			brow = brow[:len(arow)]
			var s0, s1, s2, s3 float32
			p := 0
			for ; p+3 < len(arow); p += 4 {
				s0 += arow[p] * brow[p]
				s1 += arow[p+1] * brow[p+1]
				s2 += arow[p+2] * brow[p+2]
				s3 += arow[p+3] * brow[p+3]
			}
			s := (s0 + s1) + (s2 + s3)
			for ; p < len(arow); p++ {
				s += arow[p] * brow[p]
			}
			if g.acc {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}

// mmTNRange mirrors mmNNRange for aᵀ·b: the four a values per pass are
// strided loads a[p..p+3][i], amortised over the j block.
func mmTNRange(g *mmArgs, lo, hi int) {
	ad, bd, dd := g.ad, g.bd, g.dd
	m, n, k := g.m, g.n, g.k
	if !g.acc {
		for i := lo; i < hi; i++ {
			row := dd[i*n : (i+1)*n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	for j0 := 0; j0 < n; j0 += blockN {
		j1 := j0 + blockN
		if j1 > n {
			j1 = n
		}
		for k0 := 0; k0 < k; k0 += blockK {
			k1 := k0 + blockK
			if k1 > k {
				k1 = k
			}
			for i := lo; i < hi; i++ {
				drow := dd[i*n+j0 : i*n+j1]
				p := k0
				for ; p+3 < k1; p += 4 {
					a0 := ad[p*m+i]
					a1 := ad[(p+1)*m+i]
					a2 := ad[(p+2)*m+i]
					a3 := ad[(p+3)*m+i]
					b0 := bd[p*n+j0 : p*n+j1]
					b1 := bd[(p+1)*n+j0 : (p+1)*n+j1]
					b2 := bd[(p+2)*n+j0 : (p+2)*n+j1]
					b3 := bd[(p+3)*n+j0 : (p+3)*n+j1]
					b0 = b0[:len(drow)]
					b1 = b1[:len(drow)]
					b2 = b2[:len(drow)]
					b3 = b3[:len(drow)]
					for j := range drow {
						drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; p < k1; p++ {
					av := ad[p*m+i]
					brow := bd[p*n+j0 : p*n+j1]
					brow = brow[:len(drow)]
					for j := range drow {
						drow[j] += av * brow[j]
					}
				}
			}
		}
	}
}
