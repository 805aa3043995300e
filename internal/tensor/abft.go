package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Algorithm-based fault tolerance (ABFT) for the matmul kernels. The
// classical Huang–Abraham scheme extends the operands with checksum rows
// and columns; here the same invariant is verified without touching the
// operands: for C = A·B every output row must satisfy
//
//	Σ_j C_ij = Σ_k A_ik · s_k   with   s_k = Σ_j B_kj
//
// so one extra O(m·k + k·n + m·n) pass — O(n²) against the kernel's O(n³)
// — localizes a bit flip that corrupted the kernel's output (ALU fault,
// bad store, flipped cache line) to a specific row of a specific call.
// The NT and TN variants satisfy the same identity with s taken over B's
// other axis and A addressed transposed.
//
// The checksums accumulate in float64, so the comparison needs a tolerance
// envelope for the kernel's float32 arithmetic (and for tolerance-mode
// SIMD backends, which may reassociate with FMA): row i passes when
//
//	|r_i − y_i| ≤ abftRelC · (k + n) · 2⁻²⁴ · ŷ_i + abftAbsEps
//
// where ŷ_i = Σ_k |A_ik| · ŝ_k (ŝ over |B|) bounds the magnitude flowing
// into the row. A flip in an exponent or high-mantissa bit shifts the row
// sum far outside this envelope; flips in the lowest mantissa bits of
// values ≪ ŷ_i can hide inside it — the documented detection floor
// (DESIGN.md §15). Verification reads the kernel's output but never
// changes it: wrapping preserves bit-identical results on every backend.

const (
	// abftRelC is the safety factor on the float32 rounding-error model.
	// 32 covers the scalar ascending-k chains and the AVX2/FMA lane-split
	// reassociations measured in the kernel A/B suite, with headroom for
	// cancellation-heavy inputs.
	abftRelC = 32.0
	// abftAbsEps is the absolute floor of the envelope, for rows whose
	// magnitude sum is ~0 (all-zero operands still deserve a check).
	abftAbsEps = 1e-30
)

// ABFTError reports a matmul whose output failed checksum verification.
// The pipeline layer converts the panic carrying it into a typed
// comm.IntegrityError feeding the repair path.
type ABFTError struct {
	// Op is the kernel variant ("NN", "NT", "TN").
	Op string
	// M, N, K are the operation dimensions.
	M, N, K int
	// Row is the first output row whose checksum left the envelope.
	Row int
	// Diff is |rowsum − checksum| for that row; Tol is the envelope.
	Diff, Tol float64
	// Backend is the wrapped backend that produced the output.
	Backend string
}

func (e *ABFTError) Error() string {
	return fmt.Sprintf("tensor: ABFT checksum mismatch in MatMul%s [%d×%d×%d] on %q: row %d off by %.6g (tolerance %.6g)",
		e.Op, e.M, e.K, e.N, e.Backend, e.Row, e.Diff, e.Tol)
}

// abftBackend wraps another backend, verifying every matmul. Every other
// kernel is the embedded backend's own, unverified: the elementwise ones are
// O(n) with no reduction structure to checksum, so the belt/resident-state
// CRCs cover their outputs instead, and the fused attention kernel has no
// matmul-shaped output (its scores never materialise).
type abftBackend struct {
	Backend
}

// abftFault, when non-nil, is called with every verified matmul's output
// buffer between the kernel and its checksum verification — the seam the
// bit-flip chaos injector uses to prove kernel flips are detected. Stored
// atomically; nil in production.
var abftFault atomic.Pointer[func([]float32)]

// SetABFTFault installs (or, with nil, removes) the fault-injection hook
// called on every ABFT-verified matmul output. Test/chaos use only.
func SetABFTFault(h func([]float32)) {
	if h == nil {
		abftFault.Store(nil)
		return
	}
	abftFault.Store(&h)
}

// EnableABFT wraps the current backend with ABFT matmul verification.
// Idempotent; a later SetBackend replaces the wrapper (call EnableABFT
// again after switching backends).
func EnableABFT() {
	backendMu.Lock()
	defer backendMu.Unlock()
	cur := *curBackend.Load()
	if _, ok := cur.(*abftBackend); ok {
		return
	}
	b := Backend(&abftBackend{Backend: cur})
	curBackend.Store(&b)
}

// DisableABFT unwraps the ABFT verifier, restoring the inner backend.
func DisableABFT() {
	backendMu.Lock()
	defer backendMu.Unlock()
	if w, ok := (*curBackend.Load()).(*abftBackend); ok {
		curBackend.Store(&w.Backend)
	}
}

// ABFTEnabled reports whether the active backend verifies matmuls.
func ABFTEnabled() bool {
	_, ok := current().(*abftBackend)
	return ok
}

// Name implements Backend.
func (b *abftBackend) Name() string { return "abft(" + b.Backend.Name() + ")" }

// abftScratch pools the per-call float64 checksum vectors (s, ŝ, and the
// row budget both live in one backing slice) so steady-state verification
// allocates nothing even under concurrent callers.
var abftScratch = sync.Pool{
	New: func() any { s := make([]float64, 0, 1024); return &s },
}

func abftGet(n int) (*[]float64, []float64) {
	p := abftScratch.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return p, (*p)[:n]
}

// rowSumCheck verifies Σ_j dst_ij against y (the predicted row sums) with
// the per-row envelope tol, panicking with an ABFTError on the first
// violation. prev, when non-nil, holds dst's row sums before an
// accumulating call — the check then covers only the kernel's contribution.
func (b *abftBackend) rowSumCheck(op string, dst *Tensor, m, n, k int, y, yabs, prev []float64) {
	d := dst.Data
	relScale := abftRelC * float64(k+n) / (1 << 24)
	for i := 0; i < m; i++ {
		var r float64
		row := d[i*n : (i+1)*n]
		for _, v := range row {
			r += float64(v)
		}
		if prev != nil {
			r -= prev[i]
		}
		diff := math.Abs(r - y[i])
		tol := relScale*yabs[i] + abftAbsEps
		if prev != nil {
			// An accumulating call sees the pre-existing dst rounded into
			// the float32 row as well; widen by its magnitude.
			tol += relScale * math.Abs(prev[i])
		}
		if diff > tol || r != r {
			panic(&ABFTError{Op: op, M: m, N: n, K: k, Row: i, Diff: diff, Tol: tol, Backend: b.Backend.Name()})
		}
	}
}

// verifyMatMul runs one checksummed matmul. sum(bk) must return
// (Σ_j B_kj, Σ_j |B_kj|) for contraction index bk, and aRow(i, k) must
// return A's element multiplying it for output row i.
func (b *abftBackend) verifyMatMul(op string, dst *Tensor, m, n, k int, acc bool,
	aAt func(i, kk int) float32, bSum func(kk int) (float64, float64), kernel func()) {

	// One scratch block: s, ŝ (k each), y, ŷ, prev (m each).
	hold, buf := abftGet(2*k + 3*m)
	defer abftScratch.Put(hold)
	s, sabs := buf[:k], buf[k:2*k]
	y, yabs := buf[2*k:2*k+m], buf[2*k+m:2*k+2*m]
	var prev []float64
	for kk := 0; kk < k; kk++ {
		s[kk], sabs[kk] = bSum(kk)
	}
	if acc {
		prev = buf[2*k+2*m : 2*k+3*m]
		d := dst.Data
		for i := 0; i < m; i++ {
			var r float64
			for _, v := range d[i*n : (i+1)*n] {
				r += float64(v)
			}
			prev[i] = r
		}
	}
	for i := 0; i < m; i++ {
		var yi, ya float64
		for kk := 0; kk < k; kk++ {
			a := float64(aAt(i, kk))
			yi += a * s[kk]
			ya += math.Abs(a) * sabs[kk]
		}
		y[i], yabs[i] = yi, ya
	}

	kernel()

	if h := abftFault.Load(); h != nil {
		(*h)(dst.Data)
	}
	b.rowSumCheck(op, dst, m, n, k, y, yabs, prev)
}

// MatMulNN implements Backend with ABFT verification.
func (b *abftBackend) MatMulNN(dst, a, bb *Tensor, acc bool) {
	m, k, n := a.Rows(), a.Cols(), bb.Cols()
	ad, bd := a.Data, bb.Data
	b.verifyMatMul("NN", dst, m, n, k, acc,
		func(i, kk int) float32 { return ad[i*k+kk] },
		func(kk int) (float64, float64) {
			var s, sa float64
			for _, v := range bd[kk*n : (kk+1)*n] {
				s += float64(v)
				sa += math.Abs(float64(v))
			}
			return s, sa
		},
		func() { b.Backend.MatMulNN(dst, a, bb, acc) })
}

// MatMulNT implements Backend with ABFT verification.
func (b *abftBackend) MatMulNT(dst, a, bb *Tensor, acc bool) {
	m, k, n := a.Rows(), a.Cols(), bb.Rows()
	ad, bd := a.Data, bb.Data
	b.verifyMatMul("NT", dst, m, n, k, acc,
		func(i, kk int) float32 { return ad[i*k+kk] },
		func(kk int) (float64, float64) {
			// s_k = Σ_j B_jk over B's rows (B is [n,k]).
			var s, sa float64
			for j := 0; j < n; j++ {
				v := float64(bd[j*k+kk])
				s += v
				sa += math.Abs(v)
			}
			return s, sa
		},
		func() { b.Backend.MatMulNT(dst, a, bb, acc) })
}

// MatMulTN implements Backend with ABFT verification.
func (b *abftBackend) MatMulTN(dst, a, bb *Tensor, acc bool) {
	k, m, n := a.Rows(), a.Cols(), bb.Cols()
	ad, bd := a.Data, bb.Data
	b.verifyMatMul("TN", dst, m, n, k, acc,
		func(i, kk int) float32 { return ad[kk*m+i] },
		func(kk int) (float64, float64) {
			var s, sa float64
			for _, v := range bd[kk*n : (kk+1)*n] {
				s += float64(v)
				sa += math.Abs(float64(v))
			}
			return s, sa
		},
		func() { b.Backend.MatMulTN(dst, a, bb, acc) })
}

var _ Backend = (*abftBackend)(nil)
