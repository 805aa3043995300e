package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"weipipe/internal/tensor"
)

// The kernel A/B is the functional counterpart of the Go benchmarks
// BenchmarkMatMul{NT,NN,TN} and BenchmarkCausalAttention: it times the
// headline 256³ NT matmul, the NN, TN and both NT matmuls of the
// long-context benchmark's FFN (forward, W pass, B pass), and one
// fused-attention forward+backward at that benchmark's attention shape, on
// the scalar oracle and on the best
// registered SIMD backend, and records the speedups, so CI can guard the
// kernel work without go-test bench plumbing. On machines with no SIMD
// backend the A/B degenerates to scalar-vs-scalar and reports speedups of 1.

// KernelReport is the serialised measurement, written by
// `weipipe-bench -kernel`.
type KernelReport struct {
	GoArch   string   `json:"goarch"`
	Backends []string `json:"backends"`
	// SIMDCompiled reports whether the build carries the assembly kernels
	// (amd64 without the noasm tag); if it does and BestBackend is still
	// scalar, the CPU lacks AVX2+FMA and the A/B measured nothing.
	SIMDCompiled  bool   `json:"simd_compiled"`
	BestBackend   string `json:"best_backend"`
	Reps          int    `json:"reps"`
	ToleranceMode bool   `json:"tolerance_mode"`
	// Matmuls holds one row per matmul form.
	Matmuls []MatmulAB `json:"matmuls"`
	// Attention is the fused causal attention forward+backward A/B.
	Attention AttentionAB `json:"attention"`
}

// MatmulAB is one matmul row of the kernel A/B: dst[M,N] from a K-long
// reduction in the given form (NN a·b, NT a·bᵀ, TN aᵀ·b).
type MatmulAB struct {
	Form       string  `json:"form"`
	M          int     `json:"m"`
	N          int     `json:"n"`
	K          int     `json:"k"`
	ScalarMs   float64 `json:"scalar_ms"`
	BestMs     float64 `json:"best_ms"`
	Speedup    float64 `json:"speedup"`
	BestGFlops float64 `json:"best_gflops"`
	MaxAbsDiff float64 `json:"max_abs_diff"`
}

// AttentionAB is the attention row of the kernel A/B: one
// CausalAttention + CausalAttentionBackward over [Seq, Hidden] operands.
type AttentionAB struct {
	Hidden     int     `json:"hidden"`
	Heads      int     `json:"heads"`
	Seq        int     `json:"seq"`
	ScalarMs   float64 `json:"scalar_ms"`
	BestMs     float64 `json:"best_ms"`
	Speedup    float64 `json:"speedup"`
	MaxAbsDiff float64 `json:"max_abs_diff"`
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i]) - float64(b.Data[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// kernelMatmul is one matmul row under measurement: its operands, the
// product call, and each side's output and fastest time.
type kernelMatmul struct {
	row  MatmulAB
	a, b *tensor.Tensor
	run  func(dst, a, b *tensor.Tensor)
	dst  [2]*tensor.Tensor
	ms   [2]float64
}

func newKernelMatmul(rng *tensor.RNG, form string, m, n, k int) *kernelMatmul {
	km := &kernelMatmul{row: MatmulAB{Form: form, M: m, N: n, K: k}}
	switch form {
	case "NN":
		km.a, km.b, km.run = tensor.New(m, k), tensor.New(k, n), tensor.MatMul
	case "NT":
		km.a, km.b, km.run = tensor.New(m, k), tensor.New(n, k), tensor.MatMulTB
	case "TN":
		km.a, km.b, km.run = tensor.New(k, m), tensor.New(k, n), tensor.MatMulTA
	}
	tensor.FillUniform(km.a, rng, -1, 1)
	tensor.FillUniform(km.b, rng, -1, 1)
	km.dst = [2]*tensor.Tensor{tensor.New(m, n), tensor.New(m, n)}
	return km
}

// RunKernelBench measures the scalar-vs-best-backend A/B: MatMulNT at
// 256×256×256, and at the long-* benchmark workloads' shapes (H 64, F 172,
// 4 heads, S 512) the FFN's NN product x·W₁, its TN product dW₁ = xᵀ·dy,
// its two NT products dy·W₂ᵀ and du·W₁ᵀ (the B pass), and attention
// forward+backward.
func RunKernelBench(reps int) (*KernelReport, error) {
	const hidden, ffn, heads, seq = 64, 172, 4, 512
	if reps <= 0 {
		reps = 20
	}
	rng := tensor.NewRNG(1)
	matmuls := []*kernelMatmul{
		newKernelMatmul(rng, "NT", 256, 256, 256),
		newKernelMatmul(rng, "NN", seq, ffn, hidden),
		newKernelMatmul(rng, "TN", hidden, ffn, seq),
		newKernelMatmul(rng, "NT", seq, ffn, hidden),
		newKernelMatmul(rng, "NT", seq, hidden, ffn),
	}
	q, k, v, dout := tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden)
	for _, t := range []*tensor.Tensor{q, k, v, dout} {
		tensor.FillNormal(t, rng, 1)
	}

	rep := &KernelReport{
		GoArch: runtime.GOARCH, Backends: tensor.Backends(), SIMDCompiled: tensor.SIMDCompiled,
		Reps:      reps,
		Attention: AttentionAB{Hidden: hidden, Heads: heads, Seq: seq},
	}
	prev := tensor.BackendName()
	defer func() { _ = tensor.SetBackend(prev) }() // the name that was active cannot be unknown

	// The two sides take turns rep by rep and each keeps its fastest
	// timing, so a host that changes speed mid-run slows both alike.
	backends := [2]string{"scalar", "auto"}
	var attnMs [2]float64
	dq := [2]*tensor.Tensor{tensor.New(seq, hidden), tensor.New(seq, hidden)}
	out, lse := tensor.New(seq, hidden), tensor.New(heads*seq)
	dk, dv := tensor.New(seq, hidden), tensor.New(seq, hidden)
	timed := func(best *float64, warm bool, run func()) {
		start := time.Now()
		run()
		if ms := time.Since(start).Seconds() * 1e3; !warm && (*best == 0 || ms < *best) {
			*best = ms
		}
	}
	for r := 0; r <= reps; r++ { // rep 0 warms caches and the worker pool
		for i, backend := range backends {
			if err := tensor.SetBackend(backend); err != nil {
				return nil, err
			}
			for _, km := range matmuls {
				timed(&km.ms[i], r == 0, func() { km.run(km.dst[i], km.a, km.b) })
			}
			timed(&attnMs[i], r == 0, func() {
				tensor.CausalAttention(out, lse, q, k, v, heads, seq, seq, 0)
				tensor.CausalAttentionBackward(dq[i], dk, dv, q, k, v, out, dout, lse, heads, seq, seq, 0)
			})
		}
	}
	rep.BestBackend = tensor.BackendName()
	rep.ToleranceMode = !tensor.BackendExact()
	for _, km := range matmuls {
		row := km.row
		row.ScalarMs, row.BestMs = km.ms[0], km.ms[1]
		if row.BestMs > 0 {
			row.Speedup = row.ScalarMs / row.BestMs
			row.BestGFlops = 2 * float64(row.M) * float64(row.N) * float64(row.K) / (row.BestMs * 1e6)
		}
		row.MaxAbsDiff = maxAbsDiff(km.dst[0], km.dst[1])
		rep.Matmuls = append(rep.Matmuls, row)
	}
	rep.Attention.ScalarMs, rep.Attention.BestMs = attnMs[0], attnMs[1]
	if rep.Attention.BestMs > 0 {
		rep.Attention.Speedup = rep.Attention.ScalarMs / rep.Attention.BestMs
	}
	rep.Attention.MaxAbsDiff = maxAbsDiff(dq[0], dq[1])
	return rep, nil
}

// WriteKernelBench runs the A/B and writes the JSON report.
func WriteKernelBench(path string, reps int) error {
	rep, err := RunKernelBench(reps)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	at := rep.Attention
	fmt.Printf("kernel A/B (best of %d, scalar vs %s, tolerance mode %v):\n", rep.Reps, rep.BestBackend, rep.ToleranceMode)
	for _, row := range rep.Matmuls {
		fmt.Printf("  MatMul%s %dx%dx%d\t%8.3f ms -> %8.3f ms (%.2fx, %.1f GFLOP/s, max |diff| %.2e)\n",
			row.Form, row.M, row.K, row.N, row.ScalarMs, row.BestMs, row.Speedup, row.BestGFlops, row.MaxAbsDiff)
	}
	fmt.Printf("  attention fwd+bwd H%d h%d S%d\t%8.3f ms -> %8.3f ms (%.2fx, max |dq diff| %.2e)\n",
		at.Hidden, at.Heads, at.Seq, at.ScalarMs, at.BestMs, at.Speedup, at.MaxAbsDiff)
	fmt.Printf("  written to %s\n", path)
	return nil
}

// RequireKernelSpeedup reads a kernel A/B report and fails unless the best
// backend reached the given speedup over scalar on every row. A build
// without the assembly kernels (noasm, non-amd64) has nothing to guard and
// passes; a build with them whose best backend is still scalar fails — the
// CPU registered no SIMD backend, and passing would make the guard vacuous.
func RequireKernelSpeedup(path string, min float64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep KernelReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if rep.BestBackend == "scalar" {
		if rep.SIMDCompiled {
			return fmt.Errorf("bench: %s: the build carries SIMD kernels but this CPU registered no SIMD backend (have %v): nothing was measured",
				path, rep.Backends)
		}
		fmt.Printf("kernel guard: scalar-only build, skipping speedup check\n")
		return nil
	}
	if len(rep.Matmuls) == 0 {
		return fmt.Errorf("bench: %s: no matmul rows: nothing was measured", path)
	}
	for _, row := range rep.Matmuls {
		if row.Speedup < min {
			return fmt.Errorf("bench: %s: %s MatMul%s %dx%dx%d speedup %.2fx below required %.2fx",
				path, rep.BestBackend, row.Form, row.M, row.K, row.N, row.Speedup, min)
		}
	}
	if rep.Attention.Speedup < min {
		return fmt.Errorf("bench: %s: %s attention fwd+bwd speedup %.2fx below required %.2fx",
			path, rep.BestBackend, rep.Attention.Speedup, min)
	}
	return nil
}
