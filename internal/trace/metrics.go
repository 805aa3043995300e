package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// IterMetrics is the structured per-iteration snapshot for one rank: where
// that rank's wall-clock went inside one CodeStep span. Exposed comm is the
// sum of CodeStall spans — time the compute thread sat blocked on a payload
// — which is the measured counterpart of the simulator's bubble.
type IterMetrics struct {
	Rank int
	Iter int

	Step    time.Duration // whole TrainIteration
	Fwd     time.Duration // Σ CodeF
	Bwd     time.Duration // Σ CodeB
	Wgrad   time.Duration // Σ CodeW
	Opt     time.Duration // Σ CodeOpt
	Exposed time.Duration // Σ CodeStall (exposed communication)
	Stalls  int           // number of stall spans

	Integrity int // CodeIntegrity instants (detected corruption)
	Spikes    int // CodeSpike instants (grad-norm anomaly verdicts)
}

// Compute returns the iteration's total compute time (F+B+W+opt).
func (m IterMetrics) Compute() time.Duration {
	return m.Fwd + m.Bwd + m.Wgrad + m.Opt
}

// PerIteration rolls a trace up into per-(rank, iteration) metrics by
// attributing each compute-thread span to the CodeStep span that contains
// it. Results are sorted by iteration then rank.
func PerIteration(events []Event) []IterMetrics {
	type stepKey struct {
		rank int32
		iter int64
	}
	type stepSpan struct {
		start, end int64
	}
	steps := make(map[stepKey]stepSpan)
	for _, e := range events {
		if e.Code == CodeStep {
			steps[stepKey{e.Rank, e.A}] = stepSpan{e.Start, e.Start + e.Dur}
		}
	}
	acc := make(map[stepKey]*IterMetrics, len(steps))
	for k, s := range steps {
		acc[k] = &IterMetrics{
			Rank: int(k.rank),
			Iter: int(k.iter),
			Step: time.Duration(s.end - s.start),
		}
	}
	for _, e := range events {
		var into *IterMetrics
		for k, s := range steps {
			if k.rank == e.Rank && e.Start >= s.start && e.Start < s.end {
				into = acc[k]
				break
			}
		}
		if into == nil {
			continue
		}
		d := time.Duration(e.Dur)
		switch e.Code {
		case CodeF:
			into.Fwd += d
		case CodeB:
			into.Bwd += d
		case CodeW:
			into.Wgrad += d
		case CodeOpt:
			into.Opt += d
		case CodeStall:
			into.Exposed += d
			into.Stalls++
		case CodeIntegrity:
			into.Integrity++
		case CodeSpike:
			into.Spikes++
		}
	}
	out := make([]IterMetrics, 0, len(acc))
	for _, m := range acc {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Iter != out[j].Iter {
			return out[i].Iter < out[j].Iter
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Summary aggregates IterMetrics across ranks and iterations: per-iteration
// step time is the max across ranks (the iteration is as slow as its
// slowest rank), everything else is the mean per rank-iteration.
type Summary struct {
	Iters       int
	Ranks       int
	AvgStep     time.Duration // mean over iterations of max-across-ranks step
	AvgFwd      time.Duration
	AvgBwd      time.Duration
	AvgWgrad    time.Duration
	AvgOpt      time.Duration
	AvgExposed  time.Duration
	TotalStalls int

	// TotalIntegrity and TotalSpikes count detection instants across the
	// whole run; both stay zero in a healthy run with the defenses off.
	TotalIntegrity int
	TotalSpikes    int
}

// Summarize aggregates per-iteration metrics into a run summary.
func Summarize(ms []IterMetrics) Summary {
	var s Summary
	if len(ms) == 0 {
		return s
	}
	stepMax := make(map[int]time.Duration)
	ranks := make(map[int]bool)
	var fwd, bwd, wgrad, opt, exposed time.Duration
	for _, m := range ms {
		if m.Step > stepMax[m.Iter] {
			stepMax[m.Iter] = m.Step
		}
		ranks[m.Rank] = true
		fwd += m.Fwd
		bwd += m.Bwd
		wgrad += m.Wgrad
		opt += m.Opt
		exposed += m.Exposed
		s.TotalStalls += m.Stalls
		s.TotalIntegrity += m.Integrity
		s.TotalSpikes += m.Spikes
	}
	s.Iters = len(stepMax)
	s.Ranks = len(ranks)
	var stepSum time.Duration
	for _, d := range stepMax {
		stepSum += d
	}
	n := time.Duration(len(ms))
	s.AvgStep = stepSum / time.Duration(len(stepMax))
	s.AvgFwd = fwd / n
	s.AvgBwd = bwd / n
	s.AvgWgrad = wgrad / n
	s.AvgOpt = opt / n
	s.AvgExposed = exposed / n
	return s
}

// String renders the summary as the console block weipipe-train -trace prints.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations      %d  (ranks %d)\n", s.Iters, s.Ranks)
	fmt.Fprintf(&b, "step time       %v  (max across ranks, mean over iters)\n", s.AvgStep.Round(time.Microsecond))
	fmt.Fprintf(&b, "fwd compute     %v  (per rank-iter mean)\n", s.AvgFwd.Round(time.Microsecond))
	fmt.Fprintf(&b, "bwd compute     %v\n", s.AvgBwd.Round(time.Microsecond))
	fmt.Fprintf(&b, "wgrad compute   %v\n", s.AvgWgrad.Round(time.Microsecond))
	fmt.Fprintf(&b, "optimizer       %v\n", s.AvgOpt.Round(time.Microsecond))
	fmt.Fprintf(&b, "exposed comm    %v  (%d stall spans)\n", s.AvgExposed.Round(time.Microsecond), s.TotalStalls)
	if s.TotalIntegrity > 0 || s.TotalSpikes > 0 {
		fmt.Fprintf(&b, "integrity       %d detections, %d grad-norm spikes\n", s.TotalIntegrity, s.TotalSpikes)
	}
	return b.String()
}
