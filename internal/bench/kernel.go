package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"weipipe/internal/tensor"
)

// The kernel A/B is the functional counterpart of the Go benchmarks
// BenchmarkMatMul{NT,NN,TN} and BenchmarkCausalAttention: it times the
// headline 256³ NT matmul, the NN, TN and both NT matmuls of the
// long-context benchmark's FFN (forward, W pass, B pass), the attention
// walk's score-tile product, one fused-attention forward+backward at that
// benchmark's attention shape, the LM head's row softmax over its [S, V]
// logits and one AdamW step over a wide-* rank's chunk, on the scalar
// oracle and
// on the best registered SIMD backend, and records the speedups, so CI can
// guard the kernel work without go-test bench plumbing. On machines with no
// SIMD backend the A/B degenerates to scalar-vs-scalar and reports speedups
// of 1.
//
// Beside the A/B sits what it is a share of: the host's FMA peak, probed per
// vector width on one goroutine and on GOMAXPROCS of them (vCPUs that share a
// core's FMA ports sum to the one-goroutine figure), and — when the best
// backend is avx512 — the avx2 reading of every row, so 16 lanes are stated
// against 8 on the same run. Neither is gated.

const (
	// kernelReps is how many timed repetitions each side of a row runs; a
	// row keeps its fastest.
	kernelReps = 20
	// minKernelSpeedup is the SIMD speedup over scalar the kernel gate
	// requires of every row. The local target is 4×+; the margin absorbs
	// shared-runner noise.
	minKernelSpeedup = 2
)

// kernelReport is the serialised measurement, written by
// `weipipe-bench -report kernel`.
type kernelReport struct {
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
	FMAPeak []fmaPeakRow `json:"fma_peak"`
	// Rows holds one row per kernel, in the order they run.
	Rows []kernelRow `json:"rows"`
}

// fmaPeakRow is the measured FMA ceiling at one vector width: 12 independent
// FMA chains on registers, on one goroutine and summed over Procs goroutines
// spinning at once.
type fmaPeakRow struct {
	Lanes     int     `json:"lanes"`
	Procs     int     `json:"procs"`
	OneGFlops float64 `json:"one_gflops"`
	AllGFlops float64 `json:"all_gflops"`
}

// kernelRow is one kernel timed on the scalar and the best backend: a
// matmul (MatMulNN a·b, MatMulNT a·bᵀ, MatMulTN aᵀ·b, shape M×K×N), the
// attention forward+backward, the head's SoftmaxRows or an AdamW step.
type kernelRow struct {
	Name     string  `json:"name"`
	Shape    string  `json:"shape"`
	ScalarMs float64 `json:"scalar_ms"`
	BestMs   float64 `json:"best_ms"`
	Speedup  float64 `json:"speedup"`
	// BestGFlops is the best backend's rate, for the matmuls.
	BestGFlops float64 `json:"best_gflops,omitempty"`
	// AVX2Ms is the avx2 backend's time when the best backend is avx512.
	AVX2Ms float64 `json:"avx2_ms,omitempty"`
	// MaxAbsDiff compares the best backend's output (attention: dq; AdamW:
	// the weights) with scalar's.
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

// kernelCase is one row under measurement: run(side) writes out[side] on
// side's backend (scalar, best, then avx2 beside an avx512 best), ms keeps
// each side's fastest time, and flop is the work GFLOP/s divides (0 where it
// does not apply).
type kernelCase struct {
	row  kernelRow
	flop float64
	run  func(side int)
	out  [3]*tensor.Tensor
	ms   [3]float64
}

func matmulCase(rng *tensor.RNG, form string, m, n, k int) *kernelCase {
	var a, b *tensor.Tensor
	var mul func(dst, a, b *tensor.Tensor)
	switch form {
	case "NN":
		a, b, mul = tensor.New(m, k), tensor.New(k, n), tensor.MatMul
	case "NT":
		a, b, mul = tensor.New(m, k), tensor.New(n, k), tensor.MatMulTB
	case "TN":
		a, b, mul = tensor.New(k, m), tensor.New(k, n), tensor.MatMulTA
	}
	tensor.FillUniform(a, rng, -1, 1)
	tensor.FillUniform(b, rng, -1, 1)
	c := &kernelCase{
		row:  kernelRow{Name: "MatMul" + form, Shape: fmt.Sprintf("%dx%dx%d", m, k, n)},
		flop: 2 * float64(m) * float64(n) * float64(k),
		out:  [3]*tensor.Tensor{tensor.New(m, n), tensor.New(m, n), tensor.New(m, n)},
	}
	c.run = func(side int) { mul(c.out[side], a, b) }
	return c
}

// scoreTileCase is the attention walk's score product at head width d: a
// 32-row query tile against a 64-key tile, q[32×d]·kᵀ[d×64], an NN
// matmul. At 16 lanes it is two whole 12-row panels and an 8-row remainder
// panel. One call takes about a microsecond, so a rep times 100 of them and
// the row reports their total.
func scoreTileCase(rng *tensor.RNG, d int) *kernelCase {
	const calls = 100
	c := matmulCase(rng, "NN", 32, 64, d)
	one := c.run
	c.run = func(side int) {
		for i := 0; i < calls; i++ {
			one(side)
		}
	}
	c.row.Name, c.row.Shape = "score tile", fmt.Sprintf("%s x%d", c.row.Shape, calls)
	c.flop *= calls
	return c
}

// adamWCase is one AdamW step over n parameters, each side stepping its
// own copy of one state with one gradient, so after the reps every side has
// taken the same steps and the weights compare bit for bit. The step is the
// first one's (C1 = 1 − B1, C2 = 1 − B2) every time; the kernels' cost does
// not depend on it.
func adamWCase(rng *tensor.RNG, n int) *kernelCase {
	c := &kernelCase{row: kernelRow{Name: "AdamW", Shape: fmt.Sprintf("%d params", n)}}
	g := tensor.New(n)
	tensor.FillNormal(g, rng, 1e-3)
	w0 := tensor.New(n)
	tensor.FillNormal(w0, rng, 0.02)
	var m, v [3][]float32
	for side := range c.out {
		c.out[side] = w0.Clone()
		m[side], v[side] = make([]float32, n), make([]float32, n)
	}
	s := tensor.AdamWStep{B1: 0.9, B2: 0.95, C1: 1 - 0.9, C2: 1 - 0.95, LR: 1e-3, Eps: 1e-8}
	c.run = func(side int) { tensor.AdamW(c.out[side].Data, g.Data, m[side], v[side], s) }
	return c
}

// runKernel measures the scalar-vs-best-backend A/B: MatMulNT at
// 256×256×256, and at the long-* benchmark workloads' shapes (H 64, F 172,
// 4 heads, S 512, V 256) the FFN's NN product x·W₁, its TN product
// dW₁ = xᵀ·dy, its two NT products dy·W₂ᵀ and du·W₁ᵀ (the B pass), the
// attention walk's score-tile product, attention forward+backward and the
// head's softmax; and an AdamW step over 820 800 parameters, a wide-* rank's
// chunk.
func runKernel() (*kernelReport, error) {
	const hidden, ffn, heads, seq, vocab = 64, 172, 4, 512, 256
	rng := tensor.NewRNG(1)
	cases := []*kernelCase{
		matmulCase(rng, "NT", 256, 256, 256),
		matmulCase(rng, "NN", seq, ffn, hidden),
		matmulCase(rng, "TN", hidden, ffn, seq),
		matmulCase(rng, "NT", seq, ffn, hidden),
		matmulCase(rng, "NT", seq, hidden, ffn),
		scoreTileCase(rng, hidden/heads),
	}
	q, k, v, dout := tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden)
	logits := tensor.New(seq, vocab)
	for _, t := range []*tensor.Tensor{q, k, v, dout, logits} {
		tensor.FillNormal(t, rng, 1)
	}
	out, lse := tensor.New(seq, hidden), tensor.New(heads*seq)
	dk, dv := tensor.New(seq, hidden), tensor.New(seq, hidden)
	attn := &kernelCase{
		row: kernelRow{Name: "attention fwd+bwd", Shape: fmt.Sprintf("H%d h%d S%d", hidden, heads, seq)},
		out: [3]*tensor.Tensor{tensor.New(seq, hidden), tensor.New(seq, hidden), tensor.New(seq, hidden)},
	}
	attn.run = func(side int) {
		tensor.CausalAttention(out, lse, q, k, v, heads, seq, seq, 0)
		tensor.CausalAttentionBackward(attn.out[side], dk, dv, q, k, v, out, dout, lse, heads, seq, seq, 0)
	}
	softmax := &kernelCase{
		row: kernelRow{Name: "SoftmaxRows", Shape: fmt.Sprintf("%dx%d", seq, vocab)},
		out: [3]*tensor.Tensor{tensor.New(seq, vocab), tensor.New(seq, vocab), tensor.New(seq, vocab)},
	}
	softmax.run = func(side int) { tensor.SoftmaxRows(softmax.out[side], logits) }
	cases = append(cases, attn, softmax, adamWCase(rng, 820800))

	rep := &kernelReport{
		GoArch: runtime.GOARCH, Backends: tensor.Backends(), SIMDCompiled: tensor.SIMDCompiled,
		Reps: kernelReps,
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
	for r := 0; r <= kernelReps; r++ { // rep 0 warms caches and the worker pool
		for side, backend := range backends {
			if err := tensor.SetBackend(backend); err != nil {
				return nil, err
			}
			for _, c := range cases {
				start := time.Now()
				c.run(side)
				if ms := time.Since(start).Seconds() * 1e3; r > 0 && (c.ms[side] == 0 || ms < c.ms[side]) {
					c.ms[side] = ms
				}
			}
		}
	}
	for _, c := range cases {
		row := c.row
		row.ScalarMs, row.BestMs, row.AVX2Ms = c.ms[0], c.ms[1], c.ms[2]
		if row.BestMs > 0 {
			row.Speedup = row.ScalarMs / row.BestMs
			if c.flop > 0 {
				row.BestGFlops = c.flop / (row.BestMs * 1e6)
			}
		}
		row.MaxAbsDiff = maxAbsDiff(c.out[0], c.out[1])
		rep.Rows = append(rep.Rows, row)
	}
	rep.FMAPeak = fmaPeak()
	return rep, nil
}

// fmaPeak probes the FMA ceiling at 8 and 16 lanes: the fastest of a few
// ~20 ms spins on this goroutine, then the same with GOMAXPROCS goroutines
// spinning at once, their rates summed. Widths the CPU lacks yield no row.
func fmaPeak() []fmaPeakRow {
	const rounds, tries = 5 << 20, 5
	procs := runtime.GOMAXPROCS(0)
	var rows []fmaPeakRow
	for _, lanes := range []int{8, 16} {
		row := fmaPeakRow{Lanes: lanes, Procs: procs}
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

// printKernel echoes the FMA peak and one line per row.
func printKernel(w io.Writer, rep *kernelReport) {
	for _, pk := range rep.FMAPeak {
		fmt.Fprintf(w, "FMA peak, %2d lanes: %6.1f GFLOP/s on one goroutine, %6.1f summed over %d\n",
			pk.Lanes, pk.OneGFlops, pk.AllGFlops, pk.Procs)
	}
	fmt.Fprintf(w, "kernel A/B (best of %d, scalar vs %s, tolerance mode %v):\n", rep.Reps, rep.BestBackend, rep.ToleranceMode)
	for _, row := range rep.Rows {
		var rate, avx2 string
		if row.BestGFlops > 0 {
			rate = fmt.Sprintf(", %.1f GFLOP/s", row.BestGFlops)
		}
		if row.AVX2Ms > 0 { // the 8-lane reading beside an avx512 best
			avx2 = fmt.Sprintf("; avx2 %.3f ms", row.AVX2Ms)
		}
		fmt.Fprintf(w, "  %s %s\t%8.3f ms -> %8.3f ms (%.2fx%s, max |diff| %.2e%s)\n",
			row.Name, row.Shape, row.ScalarMs, row.BestMs, row.Speedup, rate, row.MaxAbsDiff, avx2)
	}
}

// checkKernel is the kernel report's gate: the best backend must reach
// minKernelSpeedup over scalar on every row. A build without the assembly
// kernels (noasm, non-amd64) has nothing to guard and passes; a build with
// them whose best backend is still scalar fails — the CPU registered no SIMD
// backend, and passing would make the gate vacuous.
func checkKernel(rep *kernelReport) error {
	if rep.BestBackend == "scalar" {
		if rep.SIMDCompiled {
			return fmt.Errorf("the build carries SIMD kernels but this CPU registered no SIMD backend (have %v): nothing was measured", rep.Backends)
		}
		return nil
	}
	if len(rep.Rows) == 0 {
		return errors.New("no rows: nothing was measured")
	}
	for _, row := range rep.Rows {
		if row.Speedup < minKernelSpeedup {
			return fmt.Errorf("%s %s %s speedup %.2fx below required %.2fx",
				rep.BestBackend, row.Name, row.Shape, row.Speedup, float64(minKernelSpeedup))
		}
	}
	return nil
}
