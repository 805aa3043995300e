package sim

import (
	"encoding/json"
	"strings"
	"testing"
)

func traceFixture(t *testing.T) *Result {
	t.Helper()
	tasks := []Task{
		{ID: 0, Resource: "w0", Worker: 0, Dur: 1, Kind: "F", Label: "F0"},
		{ID: 1, Resource: "l0", Worker: -1, Dur: 0.5, Deps: []int{0}, Kind: "comm", Label: "act"},
		{ID: 2, Resource: "w1", Worker: 1, Dur: 2, Deps: []int{1}, Kind: "B", Label: "B0"},
		{ID: 3, Resource: "barrier", Worker: -1, Dur: 0, Deps: []int{2}, Kind: "coll", Label: "sync"},
	}
	r, err := Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestChromeTraceWellFormed(t *testing.T) {
	r := traceFixture(t)
	blob, err := r.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  string  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// zero-duration barrier excluded → 3 events
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("events = %d", len(parsed.TraceEvents))
	}
	for _, e := range parsed.TraceEvents {
		if e.Ph != "X" || e.Dur <= 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
	// B0 on worker 1 runs after the link: ts = 1.5s = 1.5e6 µs
	found := false
	for _, e := range parsed.TraceEvents {
		if e.Name == "B0" {
			found = true
			if e.Ts != 1.5e6 || e.Dur != 2e6 || e.Tid != "w1" {
				t.Fatalf("B0 event wrong: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("B0 missing from trace")
	}
	if !strings.Contains(r.String(), "makespan") {
		t.Fatal("String() malformed")
	}
}
