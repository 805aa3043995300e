package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"weipipe/internal/bench"
	"weipipe/internal/checkpoint"
	"weipipe/internal/cluster"
	"weipipe/internal/comm"
	"weipipe/internal/data"
	"weipipe/internal/model"
	"weipipe/internal/pipeline"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
	"weipipe/internal/tensor"
	"weipipe/internal/trace"
)

const (
	// gogc is the GC percent every run is pinned to, whatever the
	// environment says, so heap growth policy is not a noise source.
	gogc = 100
	// lossTol is the relative tolerance of the loss-agreement gates.
	lossTol = 1e-4
	// gateSteps is how many leading steps the reference runs reproduce.
	gateSteps = 2
	// refSpin is how long one host-speed reading spins; refNominal is the
	// host speed, in hostRef's GFLOP/s, that normalized times are stated at:
	// this host class's reading when nothing else runs on it.
	refSpin    = 40 * time.Millisecond
	refNominal = 5.5
)

// errAborted ends a run whose fleet failed a step. The failure is in the
// result; the run reports it instead of dying.
var errAborted = errors.New("run aborted after a failed step")

// runConfig selects one run of one workload.
type runConfig struct {
	wl      workload
	seed    uint64
	seconds float64
	traced  bool
	tiny    bool
	dir     string // artifacts: traces, checkpoint scratch
}

// plan is how much of each phase a run does.
type plan struct {
	warm        int
	setupReps   int
	calib       time.Duration
	timedWin    time.Duration // tracing-off window
	minSteps    int
	tracedWin   time.Duration
	tracedSteps int
	probeBudget time.Duration
	refSpin     time.Duration // one host-speed reading
}

func (rc runConfig) plan() plan {
	sec := time.Duration(rc.seconds * float64(time.Second))
	switch {
	case rc.tiny:
		return plan{warm: 1, setupReps: 1, calib: 10 * time.Millisecond, minSteps: 2, tracedSteps: 2,
			refSpin: time.Millisecond}
	case rc.traced:
		// The traced run splits the measuring time: untraced window (the
		// in-situ counters and the tracing-overhead base), traced window,
		// and ~25 probes.
		return plan{warm: 2, setupReps: 1, calib: 300 * time.Millisecond,
			timedWin: sec * 4 / 10, minSteps: 4, tracedWin: sec * 3 / 10, tracedSteps: 4,
			probeBudget: sec * 3 / 10 / 25, refSpin: refSpin}
	default:
		return plan{warm: 2, setupReps: 3, calib: 300 * time.Millisecond, timedWin: sec, minSteps: 12, refSpin: refSpin}
	}
}

// header records the conditions a result was measured under.
type header struct {
	Backend    string `json:"backend"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       int    `json:"gogc"`
	Commit     string `json:"commit"`
}

// pinRuntime fixes GOMAXPROCS and GOGC for the process and describes them.
// Ranks are goroutines of this one process, so runnable OS threads never
// exceed min(nproc, 4).
func pinRuntime() header {
	procs := runtime.NumCPU()
	if procs > ranks {
		procs = ranks
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gogc)
	commit := os.Getenv("WEIPIPE_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return header{
		Backend: tensor.BackendName(), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		GoVersion: runtime.Version(), GOGC: gogc, Commit: commit,
	}
}

// result is everything one run reports; the contract line on stdout is a
// projection of it.
type result struct {
	Header      header            `json:"header"`
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Traced      bool              `json:"traced"`
	Tiny        bool              `json:"tiny"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"steps_attempted"`
	Failed      int               `json:"steps_failed"`
	Problems    []string          `json:"problems,omitempty"`
	Steps       steps             `json:"steps"`             // every step of the tracing-off window, in order
	SetupS      []float64         `json:"setup_s,omitempty"` // every set-up of a tracing-off run, at nominal host speed
	Metrics     map[string]metric `json:"metrics"`
	Losses      []float64         `json:"losses"`
	WeightsCRC  uint32            `json:"weights_crc"`
	CalibGflops float64           `json:"calib_gflops"`
	TraceFile   string            `json:"trace_file,omitempty"`
}

// runner carries one run's state through its phases.
type runner struct {
	runConfig
	plan
	cfg  model.Config
	ring [][]data.Batch
	res  *result
	out  *metricSet

	dialMs, buildMs []float64 // one per set-up, for the medians
	leakBase        *procCounts
}

// fail records a correctness violation; each counts as a failed step.
func (r *runner) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// runWorkload measures one workload and returns its result. An error means
// the run could not be carried out at all; violations the run detected are
// in result.Problems with Correct false.
func runWorkload(rc runConfig) (*result, error) {
	hdr := pinRuntime()
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	wl := rc.wl
	if rc.tiny {
		wl = wl.tiny()
	}
	rc.wl = wl
	r := &runner{
		runConfig: rc, plan: rc.plan(),
		cfg: wl.modelConfig(rc.seed).WithDefaults(),
		out: newMetricSet(declsFor(rc.traced)),
		res: &result{Header: hdr, Workload: wl.Name, Seed: rc.seed, Traced: rc.traced, Tiny: rc.tiny},
	}
	r.res.CalibGflops = calibrate(r.calib)
	r.ring = wl.batches(rc.seed)

	var err error
	if rc.traced {
		err = r.tracedRun()
	} else {
		err = r.timedRun()
	}
	switch {
	case errors.Is(err, errAborted):
		// The failed step is already counted; report what was measured.
	case err != nil:
		return nil, err
	default:
		r.gates()
		r.checkLeaks()
	}

	for _, p := range r.out.check() {
		r.fail("%s", p)
	}
	r.res.Metrics = r.out.values
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// setUp dials the fabric, builds the trainers and runs the warm-up steps,
// and returns how long that took: the time a user waits before the first
// useful step.
func (r *runner) setUp(set *trace.Set, spans *spanLog) (*fleet, time.Duration, error) {
	root := spans.begin("setup", 0)
	defer spans.end(root)
	start := time.Now()

	id := spans.begin("dial", root)
	c, err := newFleet(ranks, r.wl.TCP, set)
	spans.end(id)
	if err != nil {
		return nil, 0, err
	}
	dialed := time.Now()

	id = spans.begin("build", root)
	err = c.build(r.wl.Strategy, r.cfg, r.wl.options())
	spans.end(id)
	if err != nil {
		c.close()
		return nil, 0, err
	}
	built := time.Now()

	id = spans.begin("warmup", root)
	err = r.drive(c, spans, id, 0, r.warm, nil)
	spans.end(id)
	if err != nil {
		c.close()
		return nil, 0, err
	}
	r.dialMs = append(r.dialMs, ms(float64(dialed.Sub(start))))
	r.buildMs = append(r.buildMs, ms(float64(built.Sub(dialed))))
	return c, time.Since(start), nil
}

// steps are the samples of one measured stretch of steps, in order.
type steps struct {
	// RawMs is each step as timed, barrier to barrier.
	RawMs []float64 `json:"raw_ms"`
	// HostRef is the host's speed (hostRef, GFLOP/s) read before the first
	// step and after every step: len(RawMs)+1 readings.
	HostRef []float64 `json:"host_ref"`
}

// atNominal states a duration at the nominal host speed: the time as measured
// times the mean of the host readings on either side of it, over refNominal.
// See README.md, "Noise": on a host whose speed swings 2× within a minute raw
// times measure the neighbours; this product repeats.
func atNominal(d, refBefore, refAfter float64) float64 {
	return d * (refBefore + refAfter) / 2 / refNominal
}

// normMs is each step at the nominal host speed.
func (s steps) normMs() []float64 {
	out := make([]float64, len(s.RawMs))
	for i, raw := range s.RawMs {
		out[i] = atNominal(raw, s.HostRef[i], s.HostRef[i+1])
	}
	return out
}

// drive runs steps on c until d has elapsed and minSteps have run.
// When rec is non-nil it records each step and reads the host's speed
// between steps. A failed step is counted and ends the drive with
// errAborted: the fleet cannot continue.
func (r *runner) drive(c *fleet, spans *spanLog, parent int, d time.Duration, minSteps int, rec *steps) error {
	if rec != nil {
		rec.HostRef = append(rec.HostRef, hostRef(r.refSpin))
	}
	start := time.Now()
	more := func(n int) bool {
		elapsed := time.Since(start)
		if elapsed < d {
			return true
		}
		// Past the window, run on to minSteps — but a timed window gives up
		// at twice its length, so a throttled host cannot run the
		// acceptance driver's budget out. The sample count is reported.
		return n < minSteps && (d == 0 || elapsed < 2*d)
	}
	for n := 0; more(n); n++ {
		id := spans.begin(fmt.Sprintf("step[%d]", c.steps), parent)
		dur, err := c.step(r.ring[c.steps%batchRing])
		spans.end(id)
		r.res.Attempted++
		if err != nil {
			r.fail("%v", err)
			return errAborted
		}
		if rec != nil {
			rec.RawMs = append(rec.RawMs, ms(float64(dur)))
			rec.HostRef = append(rec.HostRef, hostRef(r.refSpin))
		}
	}
	return nil
}

// window is what one measured stretch of steps yields.
type window struct {
	steps
	comm commTotals // delta over the window (maxInflight: value at its end)
	// mem is read after a forced GC just before the first step, so its
	// HeapAlloc is the live heap; memEnd is read after the last step.
	mem, memEnd runtime.MemStats
}

// measure runs one window of steps on c with the GC settled beforehand and
// nothing but the steps and the host readings between them inside it.
func (r *runner) measure(c *fleet, spans *spanLog, d time.Duration, minSteps int) (*window, error) {
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.mem)
	before := c.commTotals()
	err := r.drive(c, spans, 0, d, minSteps, &w.steps)
	runtime.ReadMemStats(&w.memEnd)
	w.comm = c.commTotals().since(before)
	if skipped := c.skippedSteps(); skipped > 0 {
		r.fail("%d optimizer steps were skipped", skipped)
	}
	return w, err
}

// timedRun is the tracing-off run: every end-to-end metric.
func (r *runner) timedRun() error {
	before := hostRef(r.refSpin)
	c, setup, err := r.setUp(nil, nil)
	if err != nil {
		return err
	}
	w, err := r.measure(c, nil, r.timedWin, r.minSteps)
	if err != nil {
		c.close()
		return err
	}
	// The window's first host reading is the one just after the set-up.
	setups := []float64{atNominal(setup.Seconds(), before, w.HostRef[0])}
	rss, rssErr := peakRSSMB()
	r.recordOutputs(c)
	c.close()
	r.noteTeardown()
	if rssErr != nil {
		return rssErr
	}

	// Further set-ups, each torn down again: setup_s is their median.
	for i := 1; i < r.setupReps; i++ {
		before := hostRef(r.refSpin)
		c, setup, err := r.setUp(nil, nil)
		if err != nil {
			return err
		}
		c.close()
		setups = append(setups, atNominal(setup.Seconds(), before, hostRef(r.refSpin)))
		runtime.GC()
	}

	n := float64(len(w.RawMs))
	tokens := float64(r.wl.tokensPerStep())
	norm := w.normMs()
	r.res.Steps = w.steps
	r.res.SetupS = setups
	r.out.put("setup_s", median(setups))
	r.out.put("step_ms_p50", median(norm))
	r.out.put("tokens_per_s", tokens*n/(sum(norm)/1e3))
	r.out.put("peak_rss_mb", rss)
	r.out.put("wire_bytes_per_token", float64(w.comm.bytes)/n/tokens)
	return nil
}

// recordOutputs keeps what parent-vs-change runs diff: the loss sequence
// and a CRC of the assembled post-training weights.
func (r *runner) recordOutputs(c *fleet) {
	r.res.Losses = c.losses
	r.res.WeightsCRC = comm.ChecksumSlice(pipeline.AssembleWeights(c.trainers))
}

// tracedRun is the layer-attributed run: every per-layer metric, and the
// Chrome trace.
func (r *runner) tracedRun() error {
	out := r.out
	out.put("host.calib_gflops", r.res.CalibGflops)

	// Untraced window: in-situ comm counters, runtime deltas, and the base
	// the tracing overhead is measured against.
	c, _, err := r.setUp(nil, nil)
	if err != nil {
		return err
	}
	base, err := r.measure(c, nil, r.timedWin, r.minSteps)
	if err != nil {
		c.close()
		return err
	}
	r.recordOutputs(c)
	c.close()
	r.noteTeardown()

	steps := float64(len(base.RawMs))
	rankSteps := steps * ranks
	r.res.Steps = base.steps
	out.put("host.ref_gflops", median(base.HostRef))
	out.put("pipeline.step_ms_raw", median(base.RawMs))
	out.put("comm.msgs_per_step", float64(base.comm.msgs)/steps)
	out.put("comm.bytes_per_step", float64(base.comm.bytes)/steps)
	out.put("comm.recv_wait_ms_per_step", ms(float64(base.comm.recvWait))/rankSteps)
	out.put("comm.belt_stall_ms_per_step", ms(float64(base.comm.beltStall))/rankSteps)
	out.put("comm.max_inflight_mb", float64(base.comm.maxInflight)/1e6)
	out.put("comm.retransmits_per_step", float64(base.comm.retransmits)/steps)
	out.put("comm.timeouts", float64(base.comm.timeout))
	out.put("runtime.alloc_mb_per_step", float64(base.memEnd.TotalAlloc-base.mem.TotalAlloc)/1e6/steps)
	out.put("runtime.gc_cycles_per_step", float64(base.memEnd.NumGC-base.mem.NumGC)/steps)
	out.put("runtime.gc_pause_ms_per_step", ms(float64(base.memEnd.PauseTotalNs-base.mem.PauseTotalNs))/steps)
	out.put("runtime.heap_live_mb", float64(base.mem.HeapAlloc)/1e6)

	// Traced window: the same fleet shape rebuilt with a trace set.
	set := trace.NewSet(ranks, 0)
	spans := newSpanLog(set)
	c, _, err = r.setUp(set, spans)
	if err != nil {
		return err
	}
	defer c.close()
	traced, err := r.measure(c, spans, r.tracedWin, r.tracedSteps)
	if err != nil {
		return err
	}
	r.pipelineMetrics(c, set)
	out.put("trace.overhead_pct", (median(traced.normMs())/median(base.normMs())-1)*100)
	out.put("trace.dropped", float64(set.Dropped()))
	out.put("comm.dial_ms", median(r.dialMs))
	out.put("pipeline.trainer_build_ms", median(r.buildMs))

	// Probes, under spans on the traced run's clock.
	root := spans.begin("probes", 0)
	p := &prober{budget: r.probeBudget, spans: spans, parent: root}
	p.kernelProbes(r.wl, r.cfg, out)
	params := p.moduleProbes(r.wl, r.cfg, out)
	if err := p.wireProbes(r.wl, msgElems(r.wl, params), out); err != nil {
		return err
	}
	if err := r.checkpointProbes(p, c); err != nil {
		return err
	}
	spans.end(root)
	c.close()

	return r.exportTrace(set, spans, c.steps)
}

// pipelineMetrics emits pipeline.* from the fastest step of the traced
// window — the one the host disturbed least — as means over its four ranks.
func (r *runner) pipelineMetrics(c *fleet, set *trace.Set) {
	byIter := map[int][]trace.IterMetrics{}
	for _, m := range trace.PerIteration(set.Events()) {
		if m.Iter >= r.warm {
			byIter[m.Iter] = append(byIter[m.Iter], m)
		}
	}
	var best trace.Summary
	var kept []trace.IterMetrics
	for _, rows := range byIter {
		if sum := trace.Summarize(rows); kept == nil || sum.AvgStep < best.AvgStep {
			best, kept = sum, rows
		}
	}
	if len(kept) != ranks {
		r.fail("traced run: fastest step has spans from %d ranks, want %d", len(kept), ranks)
		return
	}
	var step float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range kept {
		step += float64(m.Step) / ranks
		lo, hi = math.Min(lo, float64(m.Compute())), math.Max(hi, float64(m.Compute()))
	}
	attributed := float64(best.AvgFwd + best.AvgBwd + best.AvgWgrad + best.AvgOpt + best.AvgExposed)

	out := r.out
	out.put("pipeline.fwd_ms", ms(float64(best.AvgFwd)))
	out.put("pipeline.bwd_ms", ms(float64(best.AvgBwd)))
	out.put("pipeline.wgrad_ms", ms(float64(best.AvgWgrad)))
	out.put("pipeline.opt_ms", ms(float64(best.AvgOpt)))
	out.put("pipeline.exposed_ms", ms(float64(best.AvgExposed)))
	out.put("pipeline.exposed_share", float64(best.AvgExposed)/step)
	out.put("pipeline.unattributed_ms", ms(step-attributed))
	out.put("pipeline.stalls_per_step", float64(best.TotalStalls)/ranks)
	out.put("pipeline.rank_skew_ms", ms(hi-lo))
	out.put("pipeline.arena_high_water_slots", float64(c.arenaHighWater()))
}

// checkpointProbes emits checkpoint.*: capturing the fleet's state and
// saving it. Neither is in the step today; the probes guard the stall a
// later change could add. Strategies whose trainers cannot export optimizer
// state (1F1B, FSDP) capture weights only.
func (r *runner) checkpointProbes(p *prober, c *fleet) error {
	full := true
	for _, tr := range c.trainers {
		if _, ok := tr.(pipeline.Recoverable); !ok {
			full = false
		}
	}
	var snap *checkpoint.Snapshot
	var err error
	capture := p.run("checkpoint_capture", func() {
		if full {
			snap, err = pipeline.CaptureSnapshot(c.trainers, c.steps)
			return
		}
		snap = &checkpoint.Snapshot{
			Config: r.cfg, Weights: pipeline.AssembleWeights(c.trainers),
			Sections: map[string][]float32{}, Step: int64(c.steps),
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint capture: %w", err)
	}
	r.out.put("checkpoint.capture_ms", ms(capture))

	path := filepath.Join(r.dir, fmt.Sprintf("ckpt-%s-%d.bin", r.wl.Name, os.Getpid()))
	defer os.Remove(path)
	save := p.run("checkpoint_save", func() {
		if e := checkpoint.Save(path, snap); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint save: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.out.put("checkpoint.save_mb_per_s", float64(st.Size())/1e6/(save/1e9))
	return nil
}

// exportTrace emits sim.* from the program's own Chrome trace and writes
// that trace, with the benchmark's spans added as an extra process row.
func (r *runner) exportTrace(set *trace.Set, spans *spanLog, iters int) error {
	meta := &trace.RunMeta{
		Strategy: string(r.wl.Strategy), P: ranks, N: r.wl.N, Hidden: r.wl.H, Layers: layers,
		Seq: r.wl.S, Batch: mbSize, Heads: heads, Vocab: vocab, Iters: iters,
	}
	var events []trace.ChromeEvent
	for _, e := range set.Events() {
		events = append(events, e.Chrome())
	}
	blob, err := trace.MarshalChrome(events, meta)
	if err != nil {
		return err
	}
	rep, err := bench.CompareTrace(blob)
	if err != nil {
		return fmt.Errorf("simulator comparison: %w", err)
	}
	spec := schedule.Spec{W: rep.Workload, GPU: cluster.A800(), Top: cluster.NVLinkSingle(ranks)}
	t0 := time.Now()
	tasks, err := schedule.Build(meta.Strategy, spec)
	if err == nil {
		_, err = sim.Run(tasks)
	}
	buildRun := time.Since(t0)
	if err != nil {
		return fmt.Errorf("simulator: %w", err)
	}
	r.out.put("sim.pred_bubble_share", rep.Bubble)
	r.out.put("sim.model_err_pts", math.Abs(r.out.values["pipeline.exposed_share"].Value-rep.Bubble)*100)
	r.out.put("sim.build_run_ms", ms(float64(buildRun)))

	blob, err = trace.MarshalChrome(append(events, spans.chrome(ranks)...), meta)
	if err != nil {
		return err
	}
	r.res.TraceFile = filepath.Join(r.dir, "trace-"+r.wl.Name+".json")
	return os.WriteFile(r.res.TraceFile, blob, 0o644)
}

// gates checks the run's losses against two independent runs of the same
// configuration and batches: the single-worker serial reference, and the
// workload's partner strategy. The serial step time is the traced run's
// single-worker baseline.
func (r *runner) gates() {
	if len(r.res.Losses) < gateSteps {
		r.fail("only %d losses recorded, the gates need %d", len(r.res.Losses), gateSteps)
		return
	}
	refs := []struct {
		s pipeline.Strategy
		n int
	}{{pipeline.StrategySerial, 1}, {r.wl.Partner, ranks}}
	for _, ref := range refs {
		c, err := newFleet(ref.n, false, nil)
		if err == nil {
			err = c.build(ref.s, r.cfg, r.wl.options())
		}
		if err != nil {
			r.fail("reference %s: %v", ref.s, err)
			continue
		}
		var rec steps
		err = r.drive(c, nil, 0, 0, gateSteps, &rec)
		c.close()
		if err != nil {
			continue
		}
		for i, want := range c.losses {
			got := r.res.Losses[i]
			if math.Abs(got-want) > lossTol*math.Abs(want) {
				r.fail("step %d loss %v differs from %s loss %v by more than %g relative", i, got, ref.s, want, lossTol)
			}
		}
		if r.traced && ref.s == pipeline.StrategySerial {
			r.out.put("pipeline.serial_step_ms", median(rec.normMs()))
		}
	}
}

// procCounts are the process resources a leaked transport would hold.
type procCounts struct{ goroutines, fds int }

func countProc() procCounts {
	fds, _ := os.ReadDir("/proc/self/fd")
	return procCounts{runtime.NumGoroutine(), len(fds)}
}

// noteTeardown records the counts after the first fleet teardown: the base
// later teardowns must return to (by then the worker pool and the network
// poller, which live for the process, exist).
func (r *runner) noteTeardown() {
	if r.leakBase == nil {
		// The runtime's poller opens its descriptors on first use and keeps
		// them; make sure that has happened before counting.
		if pr, pw, err := os.Pipe(); err == nil {
			pr.Close()
			pw.Close()
		}
		c := countProc()
		r.leakBase = &c
	}
}

// checkLeaks asserts every transport closed since noteTeardown gave back its
// goroutines and descriptors.
func (r *runner) checkLeaks() {
	if r.leakBase == nil {
		return
	}
	var now procCounts
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		now = countProc()
		if now.goroutines <= r.leakBase.goroutines && now.fds <= r.leakBase.fds {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	r.fail("leak after teardown: goroutines %d -> %d, fds %d -> %d",
		r.leakBase.goroutines, now.goroutines, r.leakBase.fds, now.fds)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
