package bench

import (
	"fmt"
	"strings"

	"weipipe/internal/cluster"
	"weipipe/internal/cost"
	"weipipe/internal/schedule"
	"weipipe/internal/sim"
	"weipipe/internal/trace"
)

// CompareReport aligns a measured runtime trace against the simulator's
// predicted schedule for the same (strategy, p, n): per-phase totals side
// by side, plus a calibrated cost.Workload parameter suggestion that would
// make the model reproduce the measurement.
type CompareReport struct {
	Meta      trace.RunMeta
	Workload  cost.Workload
	Measured  cost.PhaseTotals
	Simulated cost.PhaseTotals
	// Bubble is the simulated schedule's idle fraction.
	Bubble      float64
	Calibration cost.Calibration
}

// workloadFromMeta rebuilds the cost workload a trace was captured under.
// Traces written by weipipe-train embed the full model shape; traces with
// only (strategy, p, n) fall back to the Timeline figure convention so the
// comparison still lines up schedule-shape against schedule-shape.
func workloadFromMeta(meta *trace.RunMeta) cost.Workload {
	w := cost.Workload{
		H: meta.Hidden, S: meta.Seq, G: meta.Batch, L: meta.Layers,
		N: meta.N, P: meta.P, Heads: meta.Heads, Vocab: meta.Vocab,
	}
	if w.H <= 0 || w.S <= 0 || w.G <= 0 || w.L <= 0 {
		w = cost.Workload{H: 1024, S: 4096, G: 4, L: meta.P, N: meta.N, P: meta.P, Heads: 16}
	}
	return w.WithDefaults()
}

// MeasuredTotals reduces a measured Chrome trace to per-phase totals: mean
// per-iteration step time (max across ranks, since the iteration completes
// with its slowest rank) and mean per rank-iteration F/B/W/opt/stall sums.
func MeasuredTotals(events []trace.ChromeEvent) cost.PhaseTotals {
	var t cost.PhaseTotals
	ranks := map[int]bool{}
	stepByIter := map[string]float64{}
	var fUS, bUS, wUS, oUS, stallUS float64
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		ranks[e.Pid] = true
		switch e.Name {
		case "step":
			iter := e.Args["iter"]
			if e.Dur > stepByIter[iter] {
				stepByIter[iter] = e.Dur
			}
		case "F":
			fUS += e.Dur
		case "B":
			bUS += e.Dur
		case "W":
			wUS += e.Dur
		case "opt":
			oUS += e.Dur
		case "stall":
			stallUS += e.Dur
		}
	}
	t.Ranks = len(ranks)
	t.Iters = len(stepByIter)
	if t.Iters > 0 {
		var sum float64
		for _, d := range stepByIter {
			sum += d
		}
		t.StepSec = sum / float64(t.Iters) / 1e6
	}
	if denom := float64(t.Ranks * t.Iters); denom > 0 {
		t.FSec = fUS / denom / 1e6
		t.BSec = bUS / denom / 1e6
		t.WSec = wUS / denom / 1e6
		t.OptSec = oUS / denom / 1e6
		t.ExposedSec = stallUS / denom / 1e6
	}
	return t
}

// simulatedTotals reduces a one-iteration simulated schedule to the same
// per-phase shape: makespan as the step, per-worker mean F/B/W sums, and
// the mean idle (bubble) time as the exposed communication.
func simulatedTotals(res *sim.Result, p int) cost.PhaseTotals {
	t := cost.PhaseTotals{StepSec: res.Makespan, Iters: 1, Ranks: p}
	for _, task := range res.Tasks {
		switch task.Kind {
		case "F":
			t.FSec += task.End - task.Start
		case "B":
			t.BSec += task.End - task.Start
		case "W":
			t.WSec += task.End - task.Start
		}
	}
	if p > 0 {
		t.FSec /= float64(p)
		t.BSec /= float64(p)
		t.WSec /= float64(p)
	}
	t.ExposedSec = res.Makespan * res.BubbleRatio()
	return t
}

// CompareTrace parses a measured Chrome trace (as written by
// `weipipe-train -trace`), rebuilds the simulator's predicted schedule for
// the same (strategy, p, n) on the reference A800 ring, and reports the
// per-phase deltas plus a calibrated workload suggestion.
func CompareTrace(blob []byte) (*CompareReport, error) {
	events, meta, err := trace.ParseChrome(blob)
	if err != nil {
		return nil, fmt.Errorf("bench: parse trace: %w", err)
	}
	if meta == nil {
		return nil, fmt.Errorf("bench: trace has no embedded run metadata (need a trace written by weipipe-train -trace)")
	}
	if meta.P <= 0 || meta.N <= 0 || meta.Strategy == "" {
		return nil, fmt.Errorf("bench: trace metadata incomplete: %+v", *meta)
	}

	w := workloadFromMeta(meta)
	spec := schedule.Spec{W: w, GPU: cluster.A800(), Top: cluster.NVLinkSingle(meta.P)}
	tasks, err := schedule.Build(meta.Strategy, spec)
	if err != nil {
		return nil, fmt.Errorf("bench: build predicted schedule: %w", err)
	}
	res, err := sim.Run(tasks)
	if err != nil {
		return nil, fmt.Errorf("bench: simulate predicted schedule: %w", err)
	}

	r := &CompareReport{
		Meta:      *meta,
		Workload:  w,
		Measured:  MeasuredTotals(events),
		Simulated: simulatedTotals(res, meta.P),
		Bubble:    res.BubbleRatio(),
	}
	if r.Measured.Ranks == 0 || r.Measured.Iters == 0 {
		return nil, fmt.Errorf("bench: trace carries no step spans to compare")
	}
	r.Calibration = cost.Calibrate(w, spec.GPU, r.Measured, r.Simulated.ExposedSec)
	return r, nil
}

// deltaPct renders measured-vs-simulated as a signed percentage of the
// simulated value, or "n/a" when the prediction is zero.
func deltaPct(measured, simulated float64) string {
	if simulated == 0 {
		return "     n/a"
	}
	return fmt.Sprintf("%+7.1f%%", (measured-simulated)/simulated*100)
}

// String renders the comparison as the aligned per-phase table
// `weipipe-trace -compare` prints.
func (r *CompareReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compare: %s p=%d n=%d (measured %d iters × %d ranks vs simulated schedule)\n",
		r.Meta.Strategy, r.Meta.P, r.Meta.N, r.Measured.Iters, r.Measured.Ranks)
	fmt.Fprintf(&b, "%-10s %14s %14s %9s\n", "phase", "measured", "simulated", "delta")
	row := func(name string, m, s float64) {
		fmt.Fprintf(&b, "%-10s %13.6fs %13.6fs %s\n", name, m, s, deltaPct(m, s))
	}
	row("step", r.Measured.StepSec, r.Simulated.StepSec)
	row("F", r.Measured.FSec, r.Simulated.FSec)
	row("B", r.Measured.BSec, r.Simulated.BSec)
	row("W", r.Measured.WSec, r.Simulated.WSec)
	row("exposed", r.Measured.ExposedSec, r.Simulated.ExposedSec)
	fmt.Fprintf(&b, "simulated bubble: %.1f%%\n", r.Bubble*100)
	fmt.Fprintf(&b, "calibration: effective %.3g FLOP/s → suggest MFU=%.3g LinkScale=%.2f\n",
		r.Calibration.EffectiveFLOPS, r.Calibration.SuggestedMFU, r.Calibration.SuggestedLinkScale)
	return b.String()
}
