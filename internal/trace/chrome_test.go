package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSet builds a small deterministic trace via explicit Emit values:
// two ranks, one iteration, covering every lane (compute, belt, comm).
func goldenSet() *Set {
	s := NewSet(2, 64)
	us := int64(1000) // 1 µs in ns
	for rank := 0; rank < 2; rank++ {
		tr := s.Rank(rank)
		base := int64(rank) * 5 * us
		tr.Emit(base, 100*us, CodeStep, 0, 0)
		tr.Emit(base+2*us, 20*us, CodeF, 0, 1)
		tr.Emit(base+25*us, 15*us, CodeB, 0, 1)
		tr.Emit(base+42*us, 10*us, CodeW, 0, 1)
		tr.Emit(base+60*us, 5*us, CodeOpt, 0, 0)
		tr.Emit(base+70*us, 3*us, CodeStall, 0, int64(1-rank))
		tr.Emit(base+1*us, 1*us, CodeRelay, 0, 2)
		tr.Emit(base+24*us, 1*us, CodeRelay, 1, 3)
		tr.Emit(base+3*us, 2*us, CodeSend, 0, int64(1-rank))
		tr.Emit(base+6*us, 4*us, CodeRecv, 1, int64(1-rank))
		tr.Emit(base+80*us, 0, CodeRetransmit, int64(1-rank), 7)
	}
	return s
}

func goldenMeta() *RunMeta {
	return &RunMeta{
		Strategy: "wzb2", P: 2, N: 4, Hidden: 64, Layers: 4, Seq: 32,
		Batch: 8, Heads: 4, Vocab: 256, Iters: 1,
	}
}

// TestChromeTraceGolden pins the exact Chrome trace JSON the runtime
// exporter produces against a checked-in golden file. Run with -update to
// regenerate after an intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	blob, err := goldenSet().ChromeTrace(goldenMeta())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("chrome trace drifted from golden file.\ngot:\n%s\nwant:\n%s", blob, want)
	}
}

// TestChromeTraceSchema validates the structural invariants Perfetto needs,
// independent of the byte-exact golden: a traceEvents array of events with
// name/cat/ph/ts/dur/pid/tid, complete events marked "X" with non-negative
// ts, instants marked "i" with zero dur.
func TestChromeTraceSchema(t *testing.T) {
	blob, err := goldenSet().ChromeTrace(goldenMeta())
	if err != nil {
		t.Fatal(err)
	}
	// Builds before the single wire protocol recorded a link mode in the
	// metadata; their traces must still load, with the field ignored.
	old := bytes.Replace(blob, []byte(`"strategy": "wzb2"`), []byte(`"p2p_mode": "batched", "strategy": "wzb2"`), 1)
	if bytes.Equal(old, blob) {
		t.Fatal("metadata carries no strategy key to extend")
	}
	var events []ChromeEvent
	for _, doc := range [][]byte{old, blob} {
		var meta *RunMeta
		events, meta, err = ParseChrome(doc)
		if err != nil {
			t.Fatal(err)
		}
		if meta == nil || *meta != *goldenMeta() {
			t.Fatalf("meta roundtrip = %+v", meta)
		}
		if len(events) != 22 { // 11 events × 2 ranks
			t.Fatalf("events = %d, want 22", len(events))
		}
	}
	lanes := map[string]bool{}
	for _, e := range events {
		if e.Name == "" || e.Cat == "" || e.Tid == "" {
			t.Fatalf("event missing fields: %+v", e)
		}
		switch e.Ph {
		case "X":
			if e.Dur <= 0 {
				t.Fatalf("complete event with dur %v: %+v", e.Dur, e)
			}
		case "i":
			if e.Dur != 0 {
				t.Fatalf("instant with dur: %+v", e)
			}
		default:
			t.Fatalf("unexpected ph %q", e.Ph)
		}
		if e.Ts < 0 {
			t.Fatalf("negative ts: %+v", e)
		}
		if e.Pid != 0 && e.Pid != 1 {
			t.Fatalf("pid out of range: %+v", e)
		}
		lanes[e.Tid] = true
	}
	for _, lane := range []string{"compute", "belt-fwd", "belt-bwd", "comm"} {
		if !lanes[lane] {
			t.Fatalf("lane %q missing from trace", lane)
		}
	}
	// Raw-document check: the weipipe metadata key must be present so
	// -compare can rebuild the simulator side.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["weipipe"]; !ok {
		t.Fatal("weipipe metadata key missing")
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("traceEvents key missing")
	}
}

// TestMarshalChromeNoMeta keeps the meta-less document shape identical to
// what the simulator has always written: a single traceEvents key.
func TestMarshalChromeNoMeta(t *testing.T) {
	blob, err := MarshalChrome([]ChromeEvent{{Name: "F", Cat: "F", Ph: "X", Ts: 1, Dur: 2, Tid: "w0"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 1 {
		t.Fatalf("doc keys = %d, want 1 (traceEvents only)", len(doc))
	}
	events, meta, err := ParseChrome(blob)
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		t.Fatal("meta should be nil")
	}
	if len(events) != 1 || events[0].Name != "F" {
		t.Fatalf("events = %+v", events)
	}
}
