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
// BenchmarkMatMulNT/256x256x256 and BenchmarkCausalAttention: it times the
// headline NT matmul and one fused-attention forward+backward at the
// long-context benchmark shape on the scalar oracle and on the best
// registered SIMD backend and records the speedups, so CI can guard the
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
	SIMDCompiled  bool    `json:"simd_compiled"`
	BestBackend   string  `json:"best_backend"`
	M             int     `json:"m"`
	N             int     `json:"n"`
	K             int     `json:"k"`
	Reps          int     `json:"reps"`
	ScalarMs      float64 `json:"scalar_ms"`
	BestMs        float64 `json:"best_ms"`
	Speedup       float64 `json:"speedup"`
	MaxAbsDiff    float64 `json:"max_abs_diff"`
	ToleranceMode bool    `json:"tolerance_mode"`
	// Attention is the fused causal attention forward+backward A/B.
	Attention AttentionAB `json:"attention"`
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

// RunKernelBench measures the scalar-vs-best-backend A/B: MatMulNT at
// 256×256×256 and attention forward+backward at the long-* benchmark
// workloads' shape (H 64, 4 heads, S 512).
func RunKernelBench(reps int) (*KernelReport, error) {
	const (
		dim                = 256
		hidden, heads, seq = 64, 4, 512
	)
	if reps <= 0 {
		reps = 20
	}
	rng := tensor.NewRNG(1)
	a := tensor.New(dim, dim)
	bt := tensor.New(dim, dim)
	tensor.FillUniform(a, rng, -1, 1)
	tensor.FillUniform(bt, rng, -1, 1)
	q, k, v, dout := tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden)
	for _, t := range []*tensor.Tensor{q, k, v, dout} {
		tensor.FillNormal(t, rng, 1)
	}

	rep := &KernelReport{
		GoArch: runtime.GOARCH, Backends: tensor.Backends(), SIMDCompiled: tensor.SIMDCompiled,
		M: dim, N: dim, K: dim, Reps: reps,
		Attention: AttentionAB{Hidden: hidden, Heads: heads, Seq: seq},
	}
	prev := tensor.BackendName()
	defer func() { _ = tensor.SetBackend(prev) }() // the name that was active cannot be unknown

	// The two sides take turns rep by rep and each keeps its fastest
	// timing, so a host that changes speed mid-run slows both alike.
	type side struct {
		backend      string
		ntMs, attnMs float64
		nt, dq       *tensor.Tensor
	}
	sides := [2]side{{backend: "scalar"}, {backend: "auto"}}
	for i := range sides {
		sides[i].nt, sides[i].dq = tensor.New(dim, dim), tensor.New(seq, hidden)
	}
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
		for i := range sides {
			sd := &sides[i]
			if err := tensor.SetBackend(sd.backend); err != nil {
				return nil, err
			}
			timed(&sd.ntMs, r == 0, func() { tensor.MatMulTB(sd.nt, a, bt) })
			timed(&sd.attnMs, r == 0, func() {
				tensor.CausalAttention(out, lse, q, k, v, heads, seq, seq, 0)
				tensor.CausalAttentionBackward(sd.dq, dk, dv, q, k, v, out, dout, lse, heads, seq, seq, 0)
			})
		}
	}
	rep.BestBackend = tensor.BackendName()
	rep.ToleranceMode = !tensor.BackendExact()
	rep.ScalarMs, rep.Attention.ScalarMs = sides[0].ntMs, sides[0].attnMs
	rep.BestMs, rep.Attention.BestMs = sides[1].ntMs, sides[1].attnMs
	if rep.BestMs > 0 {
		rep.Speedup = rep.ScalarMs / rep.BestMs
	}
	if rep.Attention.BestMs > 0 {
		rep.Attention.Speedup = rep.Attention.ScalarMs / rep.Attention.BestMs
	}
	rep.MaxAbsDiff = maxAbsDiff(sides[0].nt, sides[1].nt)
	rep.Attention.MaxAbsDiff = maxAbsDiff(sides[0].dq, sides[1].dq)
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
	fmt.Printf("  MatMulNT %dx%dx%d            %8.3f ms -> %8.3f ms (%.2fx, max |diff| %.2e)\n",
		rep.M, rep.K, rep.N, rep.ScalarMs, rep.BestMs, rep.Speedup, rep.MaxAbsDiff)
	fmt.Printf("  attention fwd+bwd H%d h%d S%d  %8.3f ms -> %8.3f ms (%.2fx, max |dq diff| %.2e)\n",
		at.Hidden, at.Heads, at.Seq, at.ScalarMs, at.BestMs, at.Speedup, at.MaxAbsDiff)
	fmt.Printf("  written to %s\n", path)
	return nil
}

// RequireKernelSpeedup reads a kernel A/B report and fails unless the best
// backend reached the given speedup over scalar on both rows. A build
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
	if rep.Speedup < min {
		return fmt.Errorf("bench: %s: %s MatMulNT speedup %.2fx below required %.2fx",
			path, rep.BestBackend, rep.Speedup, min)
	}
	if rep.Attention.Speedup < min {
		return fmt.Errorf("bench: %s: %s attention fwd+bwd speedup %.2fx below required %.2fx",
			path, rep.BestBackend, rep.Attention.Speedup, min)
	}
	return nil
}
