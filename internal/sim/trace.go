package sim

import (
	"fmt"
	"sort"

	"weipipe/internal/trace"
)

// ChromeTrace renders the schedule as a Chrome/Perfetto trace: one track
// per resource (compute engines first, then links and the fabric), one
// complete event per task. The events marshal through the shared
// trace.ChromeEvent writer — the same format the runtime tracer exports —
// so a predicted schedule and a measured run load side by side in
// Perfetto and feed the same -compare parser. Load the output in
// chrome://tracing or ui.perfetto.dev.
func (r *Result) ChromeTrace() ([]byte, error) {
	events := make([]trace.ChromeEvent, 0, len(r.Tasks))
	for _, t := range r.Tasks {
		if t.Dur == 0 {
			continue // barriers and zero-cost syncs only clutter the view
		}
		events = append(events, trace.ChromeEvent{
			Name: t.Label,
			Cat:  t.Kind,
			Ph:   "X",
			Ts:   t.Start * 1e6,
			Dur:  (t.End - t.Start) * 1e6,
			Pid:  0,
			Tid:  t.Resource,
			Args: map[string]string{"kind": t.Kind},
		})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
	return trace.MarshalChrome(events, nil)
}

// String summarises the result.
func (r *Result) String() string {
	return fmt.Sprintf("makespan=%.3fs bubble=%.1f%% tasks=%d",
		r.Makespan, r.BubbleRatio()*100, len(r.Tasks))
}
