package tensor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Backend is the pluggable compute seam: every hot primitive the training
// and inference runtimes execute — the matmul variants, the BLAS-1 update
// ops, the activation and softmax kernels, the row-wise norm and the fused
// attention kernel — goes
// through the process-wide current Backend. SIMD backends register at init
// when the build and the CPU support them, and the best registered backend
// is the process default. The scalar backend (pure Go, the PR-1 kernels) is
// the bit-exactness reference oracle and the default everywhere else; pin it
// with SetBackend("scalar") (or the cmd binaries' -backend flag). A future
// BLAS or GPU backend drops into the same seam.
//
// Contract:
//
//   - Shapes are validated by the package-level wrapper functions
//     (MatMul, Axpy, ...); Backend methods may assume conforming shapes.
//   - Every backend is deterministic: identical inputs produce bitwise
//     identical outputs on every call, regardless of worker count or
//     chunking. This is what keeps all training strategies bit-identical
//     to each other under any single backend.
//   - A backend reporting Exact() == true additionally reproduces the
//     scalar reference bit-for-bit on every method. Inexact ("tolerance
//     mode") backends may reassociate reductions (FMA, multi-lane
//     accumulators) on the kernels where preserving the scalar
//     ascending-k order would forfeit the speedup; the equivalence suite
//     bounds their per-element deviation. See DESIGN.md §13.
type Backend interface {
	// Name returns the registry key ("scalar", "avx2", ...).
	Name() string
	// Exact reports whether every kernel is bit-identical to the scalar
	// reference backend.
	Exact() bool

	// MatMulNN computes dst = a·b (dst += a·b when acc); a is [m,k],
	// b is [k,n], dst is [m,n].
	MatMulNN(dst, a, b *Tensor, acc bool)
	// MatMulNT computes dst = a·bᵀ (dst += when acc); a is [m,k],
	// b is [n,k], dst is [m,n].
	MatMulNT(dst, a, b *Tensor, acc bool)
	// MatMulTN computes dst = aᵀ·b (dst += when acc); a is [k,m],
	// b is [k,n], dst is [m,n].
	MatMulTN(dst, a, b *Tensor, acc bool)

	// Add computes dst = a + b elementwise, one add per element on every
	// backend; dst may alias a or b.
	Add(dst, a, b *Tensor)
	// Mul computes dst = a * b elementwise, one multiply per element on
	// every backend; dst may alias a or b.
	Mul(dst, a, b *Tensor)
	// Axpy computes dst += s*a elementwise.
	Axpy(dst *Tensor, s float32, a *Tensor)
	// Scale computes dst = s*a elementwise; dst may alias a.
	Scale(dst, a *Tensor, s float32)
	// AddInto computes dst[i] += a[i] over equal-length slices, one add per
	// element on every backend. It takes slices, not tensors: besides
	// tensor.AddInto it sums the raw wire buffers of the gradient belt and
	// the ring collectives.
	AddInto(dst, a []float32)
	// Dot returns the inner product accumulated in float64, ascending.
	Dot(a, b *Tensor) float64
	// DotF32 returns the inner product accumulated natively in float32.
	// The scalar reference accumulates ascending in one chain; tolerance
	// backends may use lane-split chains with a balanced combine tree.
	DotF32(a, b *Tensor) float32

	// SiLU computes dst = a·sigmoid(a); dst may alias a.
	SiLU(dst, a *Tensor)
	// SiLUBackward computes dst = dy ⊙ silu'(x); dst may alias dy, not x.
	SiLUBackward(dst, x, dy *Tensor)
	// SoftmaxRows computes a numerically stable row-wise softmax.
	SoftmaxRows(dst, a *Tensor)
	// SoftmaxRowsBackward computes dx = y ⊙ (dy − Σ(dy⊙y)) row-wise.
	SoftmaxRowsBackward(dst, y, dy *Tensor)
	// RMSNormRows computes y_ij = g_j · x_ij / rms_i and stores each row's
	// 1/rms_i into inv, where rms_i = sqrt(mean_j(x_ij²) + eps). y and x
	// are [rows, h], gain is [h], inv is [rows]. The mean-square
	// accumulates ascending in float64 in every backend.
	RMSNormRows(y, inv, x, gain *Tensor, eps float64)

	// CausalAttention computes fused multi-head causal attention and each
	// row's log-sum-exp; see the package-level CausalAttention.
	CausalAttention(out, lse, q, k, v *Tensor, heads, sq, sk, qOffset int)
	// CausalAttentionBackward computes dq, dk and dv, recomputing the
	// probabilities from q, k and lse.
	CausalAttentionBackward(dq, dk, dv, q, k, v, out, dout, lse *Tensor, heads, sq, sk, qOffset int)
}

var (
	backendMu  sync.Mutex
	backends   = map[string]Backend{}
	curBackend atomic.Pointer[Backend]
)

// registerBackend adds a backend to the registry. Called from init
// functions; later registrations under the same name win (tests use this
// to shadow).
func registerBackend(b Backend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	backends[b.Name()] = b
}

// current returns the active backend. The pointer is read atomically so a
// SetBackend in one goroutine is safe against concurrent kernels, but ops
// already in flight finish on the backend they started with.
func current() Backend { return *curBackend.Load() }

// SetBackend selects the kernel backend by name. The name "auto" picks
// the fastest available backend (a SIMD backend when the CPU supports
// one, the scalar reference otherwise) — the selection the process starts
// with. Returns an error and leaves the selection unchanged if the name is
// unknown on this build/CPU.
//
// A non-Exact backend runs in tolerance mode: results remain deterministic
// and strategy-invariant, but are not bit-identical to the scalar oracle on
// the reassociated kernels.
func SetBackend(name string) error {
	backendMu.Lock()
	defer backendMu.Unlock()
	if name == "auto" {
		name = bestBackendLocked()
	}
	b, ok := backends[name]
	if !ok {
		return fmt.Errorf("tensor: unknown backend %q (available: %v)", name, backendNamesLocked())
	}
	curBackend.Store(&b)
	return nil
}

// autoOrder lists the SIMD backends best first, widest vectors leading.
var autoOrder = [...]string{"avx512", "avx2"}

// bestBackendLocked resolves "auto": the first of autoOrder this build and
// CPU registered, the scalar reference when there is none.
func bestBackendLocked() string {
	for _, n := range autoOrder {
		if _, ok := backends[n]; ok {
			return n
		}
	}
	return "scalar"
}

// BackendName returns the name of the active backend.
func BackendName() string { return current().Name() }

// BackendExact reports whether the active backend is bit-identical to the
// scalar reference.
func BackendExact() bool { return current().Exact() }

// Backends lists the registered backend names, sorted.
func Backends() []string {
	backendMu.Lock()
	defer backendMu.Unlock()
	return backendNamesLocked()
}

func backendNamesLocked() []string {
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BackendByName returns a registered backend without selecting it — the
// equivalence suite and the kernel A/B bench compare backends side by
// side through this.
func BackendByName(name string) (Backend, bool) {
	backendMu.Lock()
	defer backendMu.Unlock()
	b, ok := backends[name]
	return b, ok
}

func init() {
	registerBackend(scalarBackend{})
	registerSIMDBackends()
	if err := SetBackend("auto"); err != nil {
		panic(err)
	}
}
