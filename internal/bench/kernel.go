package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"weipipe/internal/tensor"
)

// The kernel A/B is the functional counterpart of the Go benchmarks
// BenchmarkMatMul{NT,NN,TN} and BenchmarkCausalAttention: it times the
// headline 256³ NT matmul, the NN, TN and both NT matmuls of the
// long-context benchmark's FFN (forward, W pass, B pass), one
// fused-attention forward+backward at that benchmark's attention shape and
// the LM head's row softmax over its [S, V] logits, on the scalar oracle and
// on the best
// registered SIMD backend, and records the speedups, so CI can guard the
// kernel work without go-test bench plumbing. On machines with no SIMD
// backend the A/B degenerates to scalar-vs-scalar and reports speedups of 1.
//
// Beside the A/B sits what it is a share of: the host's FMA peak, probed per
// vector width on one goroutine and on GOMAXPROCS of them (vCPUs that share a
// core's FMA ports sum to the one-goroutine figure), and — when the best
// backend is avx512 — the avx2 reading of every row, so 16 lanes are stated
// against 8 on the same run. Neither is gated.

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
	// FMAPeak holds one row per vector width this CPU runs.
	FMAPeak []FMAPeak `json:"fma_peak"`
	// Matmuls holds one row per matmul form.
	Matmuls []MatmulAB `json:"matmuls"`
	// Attention is the fused causal attention forward+backward A/B.
	Attention AttentionAB `json:"attention"`
	// Softmax is the LM head's SoftmaxRows A/B.
	Softmax SoftmaxAB `json:"softmax"`
}

// FMAPeak is the measured FMA ceiling at one vector width: 12 independent
// FMA chains on registers, on one goroutine and summed over Procs goroutines
// spinning at once.
type FMAPeak struct {
	Lanes     int     `json:"lanes"`
	Procs     int     `json:"procs"`
	OneGFlops float64 `json:"one_gflops"`
	AllGFlops float64 `json:"all_gflops"`
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
	// AVX2Ms is the avx2 backend's time when the best backend is avx512.
	AVX2Ms     float64 `json:"avx2_ms,omitempty"`
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
	AVX2Ms     float64 `json:"avx2_ms,omitempty"`
	MaxAbsDiff float64 `json:"max_abs_diff"`
}

// SoftmaxAB is the softmax row of the kernel A/B: one SoftmaxRows over
// [Rows, Cols] logits.
type SoftmaxAB struct {
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	ScalarMs   float64 `json:"scalar_ms"`
	BestMs     float64 `json:"best_ms"`
	Speedup    float64 `json:"speedup"`
	AVX2Ms     float64 `json:"avx2_ms,omitempty"`
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
	dst  [3]*tensor.Tensor
	ms   [3]float64
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
	km.dst = [3]*tensor.Tensor{tensor.New(m, n), tensor.New(m, n), tensor.New(m, n)}
	return km
}

// RunKernelBench measures the scalar-vs-best-backend A/B: MatMulNT at
// 256×256×256, and at the long-* benchmark workloads' shapes (H 64, F 172,
// 4 heads, S 512, V 256) the FFN's NN product x·W₁, its TN product
// dW₁ = xᵀ·dy, its two NT products dy·W₂ᵀ and du·W₁ᵀ (the B pass),
// attention forward+backward and the head's softmax.
func RunKernelBench(reps int) (*KernelReport, error) {
	const hidden, ffn, heads, seq, vocab = 64, 172, 4, 512, 256
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
	logits := tensor.New(seq, vocab)
	for _, t := range []*tensor.Tensor{q, k, v, dout, logits} {
		tensor.FillNormal(t, rng, 1)
	}

	rep := &KernelReport{
		GoArch: runtime.GOARCH, Backends: tensor.Backends(), SIMDCompiled: tensor.SIMDCompiled,
		Reps:      reps,
		Attention: AttentionAB{Hidden: hidden, Heads: heads, Seq: seq},
		Softmax:   SoftmaxAB{Rows: seq, Cols: vocab},
	}
	prev := tensor.BackendName()
	defer func() { _ = tensor.SetBackend(prev) }() // the name that was active cannot be unknown

	// The two sides take turns rep by rep and each keeps its fastest
	// timing, so a host that changes speed mid-run slows both alike.
	// The third side is avx2 beside a best backend of avx512.
	backends := []string{"scalar", "auto"}
	if err := tensor.SetBackend("auto"); err != nil {
		return nil, err
	}
	rep.BestBackend = tensor.BackendName()
	rep.ToleranceMode = !tensor.BackendExact()
	if rep.BestBackend == "avx512" {
		backends = append(backends, "avx2")
	}
	var attnMs, softmaxMs [3]float64
	dq := [3]*tensor.Tensor{tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden)}
	probs := [3]*tensor.Tensor{tensor.New(seq, vocab), tensor.New(seq, vocab), tensor.New(seq, vocab)}
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
			timed(&softmaxMs[i], r == 0, func() { tensor.SoftmaxRows(probs[i], logits) })
		}
	}
	for _, km := range matmuls {
		row := km.row
		row.ScalarMs, row.BestMs, row.AVX2Ms = km.ms[0], km.ms[1], km.ms[2]
		if row.BestMs > 0 {
			row.Speedup = row.ScalarMs / row.BestMs
			row.BestGFlops = 2 * float64(row.M) * float64(row.N) * float64(row.K) / (row.BestMs * 1e6)
		}
		row.MaxAbsDiff = maxAbsDiff(km.dst[0], km.dst[1])
		rep.Matmuls = append(rep.Matmuls, row)
	}
	rep.Attention.ScalarMs, rep.Attention.BestMs, rep.Attention.AVX2Ms = attnMs[0], attnMs[1], attnMs[2]
	if rep.Attention.BestMs > 0 {
		rep.Attention.Speedup = rep.Attention.ScalarMs / rep.Attention.BestMs
	}
	rep.Attention.MaxAbsDiff = maxAbsDiff(dq[0], dq[1])
	rep.Softmax.ScalarMs, rep.Softmax.BestMs, rep.Softmax.AVX2Ms = softmaxMs[0], softmaxMs[1], softmaxMs[2]
	if rep.Softmax.BestMs > 0 {
		rep.Softmax.Speedup = rep.Softmax.ScalarMs / rep.Softmax.BestMs
	}
	rep.Softmax.MaxAbsDiff = maxAbsDiff(probs[0], probs[1])
	rep.FMAPeak = fmaPeak()
	return rep, nil
}

// fmaPeak probes the FMA ceiling at 8 and 16 lanes: the fastest of a few
// ~20 ms spins on this goroutine, then the same with GOMAXPROCS goroutines
// spinning at once, their rates summed. Widths the CPU lacks yield no row.
func fmaPeak() []FMAPeak {
	const rounds, tries = 5 << 20, 5
	procs := runtime.GOMAXPROCS(0)
	var rows []FMAPeak
	for _, lanes := range []int{8, 16} {
		row := FMAPeak{Lanes: lanes, Procs: procs}
		for try := 0; try < tries; try++ {
			start := time.Now()
			flop := tensor.FMASpin(lanes, rounds)
			row.OneGFlops = max(row.OneGFlops, flop/float64(time.Since(start).Nanoseconds()))

			var wg sync.WaitGroup
			start = time.Now()
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tensor.FMASpin(lanes, rounds)
				}()
			}
			wg.Wait()
			row.AllGFlops = max(row.AllGFlops, float64(procs)*flop/float64(time.Since(start).Nanoseconds()))
		}
		if row.OneGFlops > 0 {
			rows = append(rows, row)
		}
	}
	return rows
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
	for _, pk := range rep.FMAPeak {
		fmt.Printf("FMA peak, %2d lanes: %6.1f GFLOP/s on one goroutine, %6.1f summed over %d\n",
			pk.Lanes, pk.OneGFlops, pk.AllGFlops, pk.Procs)
	}
	fmt.Printf("kernel A/B (best of %d, scalar vs %s, tolerance mode %v):\n", rep.Reps, rep.BestBackend, rep.ToleranceMode)
	// avx2 is the 8-lane reading beside an avx512 best, empty otherwise.
	avx2 := func(ms float64) string {
		if ms == 0 {
			return ""
		}
		return fmt.Sprintf("; avx2 %.3f ms", ms)
	}
	for _, row := range rep.Matmuls {
		fmt.Printf("  MatMul%s %dx%dx%d\t%8.3f ms -> %8.3f ms (%.2fx, %.1f GFLOP/s, max |diff| %.2e%s)\n",
			row.Form, row.M, row.K, row.N, row.ScalarMs, row.BestMs, row.Speedup, row.BestGFlops, row.MaxAbsDiff, avx2(row.AVX2Ms))
	}
	fmt.Printf("  attention fwd+bwd H%d h%d S%d\t%8.3f ms -> %8.3f ms (%.2fx, max |dq diff| %.2e%s)\n",
		at.Hidden, at.Heads, at.Seq, at.ScalarMs, at.BestMs, at.Speedup, at.MaxAbsDiff, avx2(at.AVX2Ms))
	sm := rep.Softmax
	fmt.Printf("  SoftmaxRows %dx%d\t%8.3f ms -> %8.3f ms (%.2fx, max |diff| %.2e%s)\n",
		sm.Rows, sm.Cols, sm.ScalarMs, sm.BestMs, sm.Speedup, sm.MaxAbsDiff, avx2(sm.AVX2Ms))
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
	if rep.Softmax.Speedup < min {
		return fmt.Errorf("bench: %s: %s SoftmaxRows %dx%d speedup %.2fx below required %.2fx",
			path, rep.BestBackend, rep.Softmax.Rows, rep.Softmax.Cols, rep.Softmax.Speedup, min)
	}
	return nil
}
