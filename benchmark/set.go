package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// noisyDrop is how far a workload's calibration reading may fall below the
// set's first reading before the set is marked noisy.
const noisyDrop = 0.15

// setConfig selects a full set: every workload, reps tracing-off runs each
// plus one traced run.
type setConfig struct {
	seed    uint64
	seconds float64
	reps    int
	tiny    bool
	dir     string
}

// set is the file -compare reads: every run of every workload.
type set struct {
	Header    header        `json:"header"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Tiny      bool          `json:"tiny"`
	Noisy     []string      `json:"noisy,omitempty"` // workloads whose calibration reading dropped
	Workloads []setWorkload `json:"workloads"`
}

type setWorkload struct {
	Name   string    `json:"name"`
	Why    string    `json:"why"`
	Runs   []*result `json:"runs"` // tracing off, one per seed
	Traced *result   `json:"traced"`
}

// runSet runs every workload, each run in a freshly executed child of this
// binary so that peak RSS, buffer pools and page-fault state are per run.
func runSet(sc setConfig) (*set, error) {
	if sc.reps < 1 {
		return nil, fmt.Errorf("-reps must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(sc.dir, 0o755); err != nil {
		return nil, err
	}
	s := &set{Header: pinRuntime(), Seed: sc.seed, Seconds: sc.seconds, Tiny: sc.tiny}
	firstCalib := 0.0
	for _, wl := range workloads {
		sw := setWorkload{Name: wl.Name, Why: wl.Why}
		for rep := 0; rep <= sc.reps; rep++ {
			traced := rep == sc.reps
			seed := sc.seed + uint64(rep)
			if traced {
				seed = sc.seed
			}
			res, err := runChild(exe, sc, wl.Name, seed, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.Name, err)
			}
			if firstCalib == 0 {
				firstCalib = res.CalibGflops
			}
			if res.CalibGflops < firstCalib*(1-noisyDrop) && (len(s.Noisy) == 0 || s.Noisy[len(s.Noisy)-1] != wl.Name) {
				s.Noisy = append(s.Noisy, wl.Name)
			}
			if traced {
				sw.Traced = res
			} else {
				sw.Runs = append(sw.Runs, res)
			}
		}
		s.Workloads = append(s.Workloads, sw)
	}
	return s, nil
}

// runChild executes one run in a child process and reads back its result.
// The child's table goes to stderr; a child that found violations exits
// non-zero but still leaves its result, which the set keeps.
func runChild(exe string, sc setConfig, name string, seed uint64, traced bool) (*result, error) {
	out := filepath.Join(sc.dir, fmt.Sprintf("run-%d.json", os.Getpid()))
	defer os.Remove(out)
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(sc.seconds, 'g', -1, 64),
		"-dir", sc.dir, "-out", out, "-trace", "0",
	}
	if traced {
		args[len(args)-1] = "1"
	}
	if sc.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	blob, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("child failed: %w", runErr)
		}
		return nil, err
	}
	res := new(result)
	if err := json.Unmarshal(blob, res); err != nil {
		return nil, err
	}
	return res, nil
}

// correct reports whether every run of the set passed its gates.
func (s *set) correct() bool {
	attempted, failed := 0, 0
	for _, w := range s.Workloads {
		a, f := w.failures()
		attempted, failed = attempted+a, failed+f
	}
	return attempted > 0 && failed == 0
}

// allRuns lists the tracing-off runs and then the traced one.
func (w *setWorkload) allRuns() []*result {
	if w.Traced == nil {
		return w.Runs
	}
	return append(append([]*result(nil), w.Runs...), w.Traced)
}

// failures sums the workload's attempted and failed steps over its runs.
func (w *setWorkload) failures() (attempted, failed int) {
	for _, r := range w.allRuns() {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed
}

// values collects one end-to-end metric over the workload's runs.
func (w *setWorkload) values(name string) []float64 {
	var out []float64
	for _, r := range w.Runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// print renders one run as the human table.
func (r *result) print(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "%s seed=%d traced=%v tiny=%v | backend=%s nproc=%d gomaxprocs=%d %s GOGC=%d commit=%s calib=%.2f GFLOP/s\n",
		r.Workload, r.Seed, r.Traced, r.Tiny, h.Backend, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.Commit, r.CalibGflops)
	for _, d := range declsFor(r.Traced) {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  steps attempted=%d failed=%d timed=%d weights_crc=%08x\n", r.Attempted, r.Failed, len(r.Steps.RawMs), r.WeightsCRC)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  chrome trace: %s\n", r.TraceFile)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// print renders the set: per workload the median and spread of each
// end-to-end metric, then the traced run's per-layer metrics side by side.
func (s *set) print(w io.Writer) {
	h := s.Header
	fmt.Fprintf(w, "backend=%s nproc=%d gomaxprocs=%d %s GOGC=%d commit=%s seed=%d seconds=%g\n",
		h.Backend, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOGC, h.Commit, s.Seed, s.Seconds)
	if len(s.Noisy) > 0 {
		fmt.Fprintf(w, "NOISY: calibration dropped more than %.0f%% before %v\n", noisyDrop*100, s.Noisy)
	}
	fmt.Fprintf(w, "\n%-16s %-24s %14s %-6s %8s %5s\n", "workload", "end-to-end metric", "median", "unit", "spread", "runs")
	for _, sw := range s.Workloads {
		for _, d := range endToEnd {
			vs := sw.values(d.Name)
			fmt.Fprintf(w, "%-16s %-24s %14.6g %-6s %7.2f%% %5d\n", sw.Name, d.Name, median(vs), d.Unit, spread(vs)*100, len(vs))
		}
		a, f := sw.failures()
		fmt.Fprintf(w, "%-16s %-24s %14s\n", sw.Name, "steps failed/attempted", fmt.Sprintf("%d/%d", f, a))
	}
	fmt.Fprintf(w, "\n%-34s %-8s", "per-layer metric (traced run)", "unit")
	for _, sw := range s.Workloads {
		fmt.Fprintf(w, " %14s", sw.Name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-34s %-8s", d.Name, d.Unit)
		for _, sw := range s.Workloads {
			if sw.Traced == nil {
				continue
			}
			fmt.Fprintf(w, " %14.6g", sw.Traced.Metrics[d.Name].Value)
		}
		fmt.Fprintln(w)
	}
	for _, sw := range s.Workloads {
		for _, r := range sw.allRuns() {
			for _, p := range r.Problems {
				fmt.Fprintf(w, "PROBLEM %s seed=%d traced=%v: %s\n", sw.Name, r.Seed, r.Traced, p)
			}
		}
	}
}
