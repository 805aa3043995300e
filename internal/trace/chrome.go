package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// ChromeEvent is one event of the Chrome trace format (chrome://tracing,
// ui.perfetto.dev). Timestamps and durations are microseconds. Both the
// simulator's predicted schedule and the runtime's measured trace marshal
// through this type, so the two sides of a -compare are the same format.
type ChromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  string            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// RunMeta describes the run that produced a measured trace. It is embedded
// in the trace JSON under the "weipipe" key so downstream tooling
// (weipipe-trace -compare) can rebuild the matching simulator schedule
// without the user re-specifying the topology.
type RunMeta struct {
	Strategy string `json:"strategy"`
	P        int    `json:"p"`
	N        int    `json:"n"`
	Hidden   int    `json:"hidden"`
	Layers   int    `json:"layers"`
	Seq      int    `json:"seq"`
	Batch    int    `json:"batch"`
	Heads    int    `json:"heads,omitempty"`
	Vocab    int    `json:"vocab,omitempty"`
	Iters    int    `json:"iters"`
}

// MarshalChrome renders events as a Chrome trace JSON object. meta, when
// non-nil, is embedded under the "weipipe" key; the "traceEvents" array is
// otherwise the whole document, byte-compatible with what the simulator's
// ChromeTrace has always produced.
func MarshalChrome(events []ChromeEvent, meta *RunMeta) ([]byte, error) {
	doc := map[string]any{"traceEvents": events}
	if meta != nil {
		doc["weipipe"] = meta
	}
	return json.MarshalIndent(doc, "", " ")
}

// ParseChrome decodes a Chrome trace JSON document, returning its events
// and the embedded RunMeta (nil when the trace carries none — e.g. a
// simulator-rendered trace).
func ParseChrome(blob []byte) ([]ChromeEvent, *RunMeta, error) {
	var doc struct {
		TraceEvents []ChromeEvent   `json:"traceEvents"`
		Weipipe     json.RawMessage `json:"weipipe"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, nil, fmt.Errorf("trace: parse chrome trace: %w", err)
	}
	var meta *RunMeta
	if len(doc.Weipipe) > 0 {
		meta = new(RunMeta)
		if err := json.Unmarshal(doc.Weipipe, meta); err != nil {
			return nil, nil, fmt.Errorf("trace: parse run metadata: %w", err)
		}
	}
	return doc.TraceEvents, meta, nil
}

// laneFor maps a code to its track (tid) within a rank's process row.
// Compute-thread spans share one lane so Perfetto nests them under the
// step span; belt relays and comm spans get their own rows so what runs
// under compute is visible.
func laneFor(e Event) string {
	switch e.Code {
	case CodeRelay:
		if e.A == 0 {
			return "belt-fwd"
		}
		return "belt-bwd"
	case CodeSend, CodeRecv, CodeRetransmit:
		return "comm"
	default:
		return "compute"
	}
}

// Chrome converts an Event to its ChromeEvent rendering: pid = rank,
// tid = lane, timestamps converted from nanoseconds to microseconds, and
// the code-specific A/B args spelled out by name so the Perfetto UI shows
// "mb: 3, chunk: 1" instead of anonymous integers.
func (e Event) Chrome() ChromeEvent {
	info := codeInfo[e.Code]
	args := map[string]string{"kind": info.cat}
	if info.aName != "" {
		args[info.aName] = strconv.FormatInt(e.A, 10)
	}
	if info.bName != "" {
		args[info.bName] = strconv.FormatInt(e.B, 10)
	}
	ph := "X"
	if e.Dur == 0 {
		ph = "i" // instant event (e.g. a retransmit marker)
	}
	return ChromeEvent{
		Name: info.name,
		Cat:  info.cat,
		Ph:   ph,
		Ts:   float64(e.Start) / 1e3,
		Dur:  float64(e.Dur) / 1e3,
		Pid:  int(e.Rank),
		Tid:  laneFor(e),
		Args: args,
	}
}

// ChromeTrace renders the set's events as a Chrome trace JSON document,
// embedding meta when non-nil. Events are grouped by rank (pid) and lane
// (tid), sorted by lane then start within each rank.
func (s *Set) ChromeTrace(meta *RunMeta) ([]byte, error) {
	evs := s.Events()
	out := make([]ChromeEvent, 0, len(evs))
	for _, e := range evs {
		out = append(out, e.Chrome())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pid != out[j].Pid {
			return out[i].Pid < out[j].Pid
		}
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Ts < out[j].Ts
	})
	return MarshalChrome(out, meta)
}
