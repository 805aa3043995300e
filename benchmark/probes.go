package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"weipipe/internal/comm"
	"weipipe/internal/model"
	"weipipe/internal/nn"
	"weipipe/internal/optim"
	"weipipe/internal/pipeline"
	"weipipe/internal/tensor"
)

// prober times single call sites of the program's exported functions at the
// workload's own shapes. Each probe repeats its call for the budget and
// reports the fastest call — on a shared host the slow calls measure the
// neighbours; a zero budget (tiny mode) calls once.
type prober struct {
	budget time.Duration
	spans  *spanLog
	parent int
}

// minCalls is how often a probe calls at least: once in tiny mode.
func (p *prober) minCalls() int {
	if p.budget == 0 {
		return 1
	}
	return 3
}

// run times fn under a probe.<name> span and returns the fastest call's time
// in nanoseconds.
func (p *prober) run(name string, fn func()) float64 {
	id := p.spans.begin("probe."+name, p.parent)
	defer p.spans.end(id)
	best := time.Duration(math.MaxInt64)
	var timed time.Duration
	for calls := 0; calls < p.minCalls() || timed < p.budget; calls++ {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		timed += d
		best = min(best, d)
	}
	return float64(best)
}

// calibrate spins the scalar-shaped 256³ matmul for d and returns the
// achieved GFLOP/s: a reading of how much CPU the host is giving this
// process, taken before every workload so a noisy set can be told apart
// from a slow change.
func calibrate(d time.Duration) float64 {
	const n = 256
	rng := tensor.NewRNG(1)
	a, b, dst := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	tensor.FillNormal(a, rng, 1)
	tensor.FillNormal(b, rng, 1)
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < d {
		tensor.MatMul(dst, a, b)
		calls++
	}
	return float64(calls) * 2 * n * n * n / float64(time.Since(start))
}

// msgElems is the float32 count of the workload's dominant message: the
// boundary activation for 1F1B, a 1/p weight chunk for the belts and the
// ring collectives.
func msgElems(w workload, params int) int {
	if w.Strategy == pipeline.Strategy1F1B {
		return mbSize * w.S * w.H
	}
	return params / ranks
}

func randTensor(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	tensor.FillNormal(t, rng, 1)
	return t
}

// kernelProbes emits tensor.*: the FFN's three matmul forms at
// [G·S,H]×[H,F], and the row kernels at the shapes attention, norm and the
// FFN gate call them with.
func (p *prober) kernelProbes(w workload, cfg model.Config, out *metricSet) {
	rng := tensor.NewRNG(7)
	m, h, f := mbSize*w.S, cfg.Hidden, cfg.FFNDim
	xMH, xMF, wHF := randTensor(rng, m, h), randTensor(rng, m, f), randTensor(rng, h, f)
	dMF, dMH, dHF := tensor.New(m, f), tensor.New(m, h), tensor.New(h, f)
	flop := 2 * float64(m) * float64(h) * float64(f)
	out.put("tensor.matmul_nn_gflops", flop/p.run("matmul_nn", func() { tensor.MatMul(dMF, xMH, wHF) }))
	out.put("tensor.matmul_nt_gflops", flop/p.run("matmul_nt", func() { tensor.MatMulTB(dMH, xMF, wHF) }))
	out.put("tensor.matmul_tn_gflops", flop/p.run("matmul_tn", func() { tensor.MatMulTA(dHF, xMH, xMF) }))

	scores, probs := randTensor(rng, w.S, w.S), tensor.New(w.S, w.S)
	out.put("tensor.softmax_rows_ms", ms(p.run("softmax_rows", func() { tensor.SoftmaxRows(probs, scores) })))
	gain, inv := randTensor(rng, h), tensor.New(m)
	out.put("tensor.rmsnorm_rows_ms", ms(p.run("rmsnorm_rows", func() { tensor.RMSNormRows(dMH, inv, xMH, gain, 1e-6) })))
	out.put("tensor.silu_ms", ms(p.run("silu", func() { tensor.SiLU(dMF, xMF) })))
}

// passTimes are the fastest F, B and W passes of one module, in ns.
type passTimes struct{ fwd, bwdIn, bwdParams float64 }

func (t passTimes) total() float64 { return t.fwd + t.bwdIn + t.bwdParams }

// modulePasses times the three passes of each module on an arena-backed
// cache, F then B then W as a training step chains them. The modules take
// turns inside one loop, so their times see the same host conditions and
// ratios between them hold. actBytes is the heap the first module's first
// forward drew through a fresh arena: the activations live between F and W.
func (p *prober) modulePasses(w workload, h int, mods ...nn.Module) (times []passTimes, actBytes float64) {
	id := p.spans.begin("probe.module_passes", p.parent)
	defer p.spans.end(id)
	rng := tensor.NewRNG(11)
	x, dy := randTensor(rng, mbSize*w.S, h), randTensor(rng, mbSize*w.S, h)
	arena := tensor.NewArena()
	newCache := func() *nn.Cache {
		arena.Reset()
		c := nn.NewCache(mbSize, w.S)
		c.Arena = arena
		return c
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mods[0].Forward(x, newCache())
	runtime.ReadMemStats(&after)
	actBytes = float64(after.TotalAlloc - before.TotalAlloc)

	grads := make([]*nn.ParamSet, len(mods))
	times = make([]passTimes, len(mods))
	for i, m := range mods {
		grads[i] = m.Params().NewLike()
		times[i] = passTimes{math.Inf(1), math.Inf(1), math.Inf(1)}
	}
	lap := func(best *float64, fn func()) {
		t0 := time.Now()
		fn()
		*best = math.Min(*best, float64(time.Since(t0)))
	}
	start := time.Now()
	for calls := 0; calls < p.minCalls() || time.Since(start) < 6*p.budget; calls++ {
		for i, m := range mods {
			c := newCache()
			lap(&times[i].fwd, func() { m.Forward(x, c) })
			lap(&times[i].bwdIn, func() { m.BackwardInput(dy, c) })
			lap(&times[i].bwdParams, func() { m.BackwardParams(c, grads[i]) })
		}
	}
	return times, actBytes
}

// moduleProbes emits nn.*, model.* and optim.*, and returns the model's
// parameter count.
func (p *prober) moduleProbes(w workload, cfg model.Config, out *metricSet) int {
	var mdl *model.Model
	out.put("model.build_ms", ms(p.run("model_build", func() { mdl = model.Build(cfg) })))
	params := mdl.NumParams()
	out.put("model.params", float64(params))

	times, act := p.modulePasses(w, cfg.Hidden, mdl.Blocks[0], mdl.Blocks[0].Attn)
	block, attn := times[0], times[1]
	out.put("nn.block_fwd_ms", ms(block.fwd))
	out.put("nn.block_bwd_input_ms", ms(block.bwdIn))
	out.put("nn.block_bwd_params_ms", ms(block.bwdParams))
	out.put("nn.attn_fwd_ms", ms(attn.fwd))
	out.put("nn.attn_bwd_ms", ms(attn.bwdIn+attn.bwdParams))
	out.put("nn.attn_share", attn.total()/block.total())
	out.put("nn.act_mb_per_block", act/1e6)

	n := params / ranks
	rng := tensor.NewRNG(13)
	wts, grad := randTensor(rng, n), randTensor(rng, n)
	opt := optim.NewAdamW(n, optim.DefaultAdamW(lr))
	out.put("optim.adamw_ns_per_param", p.run("adamw_step", func() { opt.Step(wts.Data, grad.Data) })/float64(n))
	return params
}

// probeRecvTimeout bounds every wire-probe receive, so a failed send on one
// side cannot leave the other side waiting forever.
const probeRecvTimeout = 10 * time.Second

// wireProbes emits the comm.* probes: a 2-rank fabric of the workload's own
// kind carrying its dominant message size, plus the codec and checksum
// kernels over the same payload.
func (p *prober) wireProbes(w workload, elems int, out *metricSet) error {
	rng := tensor.NewRNG(17)
	payload := randTensor(rng, elems).Data
	bytes := 4 * float64(elems)

	transports, err := dial(2, w.TCP, nil)
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	defer closeAll(transports)
	a, b := transports[0], transports[1]

	// One goroutine per direction: rank 1 echoes whatever rank 0 sends, so
	// a ping-pong is two one-way trips of the same payload.
	var probeErr error
	seq := 0
	pingPong := func(data []float32) func() {
		return func() {
			seq++
			tag := comm.Tag{Kind: comm.KindWeight, A: seq}
			done := make(chan error, 1)
			go func() {
				got, err := b.RecvTimeout(0, tag, probeRecvTimeout)
				if err == nil {
					err = b.Send(0, tag, got)
					comm.Release(got)
				}
				done <- err
			}()
			err := a.Send(1, tag, data)
			if err == nil {
				var got []float32
				if got, err = a.RecvTimeout(1, tag, probeRecvTimeout); err == nil {
					comm.Release(got)
				}
			}
			if e := <-done; err == nil {
				err = e
			}
			if err != nil && probeErr == nil {
				probeErr = err
			}
		}
	}
	rtt := p.run("chunk_rtt", pingPong(payload))
	out.put("comm.chunk_rtt_ms", ms(rtt))
	out.put("comm.small_rtt_us", p.run("small_rtt", pingPong(payload[:1]))/1e3)

	// One-way: a burst of sends, timed until the receiver holds the last.
	const burst = 4
	oneway := p.run("chunk_oneway", func() {
		seq++
		done := make(chan error, 1)
		base := seq * burst
		go func() {
			for i := 0; i < burst; i++ {
				got, err := b.RecvTimeout(0, comm.Tag{Kind: comm.KindWeight, A: base + i, B: 1}, probeRecvTimeout)
				if err != nil {
					done <- err
					return
				}
				comm.Release(got)
			}
			done <- nil
		}()
		var err error
		for i := 0; i < burst && err == nil; i++ {
			err = a.Send(1, comm.Tag{Kind: comm.KindWeight, A: base + i, B: 1}, payload)
		}
		if e := <-done; err == nil {
			err = e
		}
		if err != nil && probeErr == nil {
			probeErr = err
		}
	})
	out.put("comm.chunk_oneway_gbps", burst*bytes/oneway)
	if probeErr != nil {
		return fmt.Errorf("wire probe: %w", probeErr)
	}

	var sink uint32
	out.put("comm.crc_gbps", bytes/p.run("crc", func() { sink += comm.ChecksumSlice(payload) }))
	_ = sink
	out.put("comm.bf16_round_gbps", bytes/p.run("bf16_round", func() { comm.RoundToWire(comm.CodecBF16, payload) }))
	return nil
}
