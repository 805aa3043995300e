package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contractFile mirrors BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readContract(t *testing.T) contractFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode fails when BENCHMARK.json and the tables the
// program emits from drift apart, in either direction, or leave the
// contract's limits.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", c.RunSeconds)
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if got := c.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has {%s %s}", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}

	check := func(kind string, got []contractMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program has %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %q (unit %q) breaks the naming rules", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			if seen[d.Name] {
				t.Errorf("name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
	for n := range seen {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rules", n)
		}
	}
}

// TestTinySet runs every workload at the smoke-test shapes, tracing off and
// on, and checks that each run passes its gates and emits exactly the
// declared metrics with finite values, and that a set compared with itself
// is all ok.
func TestTinySet(t *testing.T) {
	dir := t.TempDir()
	s := &set{Header: pinRuntime(), Seed: 1, Tiny: true}
	for _, wl := range workloads {
		sw := setWorkload{Name: wl.Name, Why: wl.Why}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{wl: wl, seed: 1, traced: traced, tiny: true, dir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			decls := declsFor(traced)
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", wl.Name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", wl.Name, traced, d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s = %v %q", wl.Name, traced, d.Name, m.Value, m.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wl.Name, d.Name)
				}
			}
			if traced {
				sw.Traced = res
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: chrome trace: %v", wl.Name, err)
				}
			} else {
				sw.Runs = append(sw.Runs, res)
			}
		}
		s.Workloads = append(s.Workloads, sw)
	}

	// Round-trip through the file format, then compare the set with itself.
	path := dir + "/set.json"
	if err := writeJSON(path, s); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	ok, err := compareFiles(&report, path, path)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || strings.Contains(report.String(), "regression") || strings.Contains(report.String(), "unresolved") {
		t.Errorf("a set compared with itself is not all ok:\n%s", report.String())
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(xs, n=4).
func TestSpreadMatchesPython(t *testing.T) {
	// quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := spread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// quantiles([1,2,3], n=4) = [1.0, 2.0, 3.0]
	if got, want := spread([]float64{3, 1, 2}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want %v", got, want)
	}
}
