package main

import (
	"strconv"

	"weipipe/internal/trace"
)

// spanLog records the benchmark's own spans around its calls into the
// program — setup > {dial, build, warmup}, step[i], probe.<name> — on the
// traced run's clock, so the Chrome export nests the program's existing
// F/B/W/opt/stall spans under them. Each span carries an id and its parent's
// id. A nil log (tracing off) records nothing. Only the driving goroutine
// uses it.
type spanLog struct {
	clock *trace.Tracer
	spans []benchSpan
}

type benchSpan struct {
	name       string
	parent     int // span id; 0 = root
	start, dur int64
}

func newSpanLog(set *trace.Set) *spanLog {
	if set == nil {
		return nil
	}
	return &spanLog{clock: set.Rank(0)}
}

// begin opens a span and returns its id (ids start at 1).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, benchSpan{name: name, parent: parent, start: l.clock.Begin()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	s := &l.spans[id-1]
	s.dur = l.clock.Begin() - s.start
}

// chrome renders the spans as one extra process row of the Chrome trace.
func (l *spanLog) chrome(pid int) []trace.ChromeEvent {
	if l == nil {
		return nil
	}
	out := make([]trace.ChromeEvent, 0, len(l.spans))
	for i, s := range l.spans {
		out = append(out, trace.ChromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: pid, Tid: "benchmark",
			Args: map[string]string{"id": strconv.Itoa(i + 1), "parent": strconv.Itoa(s.parent)},
		})
	}
	return out
}
