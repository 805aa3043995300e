package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

func readSet(path string) (*set, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(set)
	if err := json.Unmarshal(blob, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a benchmark set (no workloads)", path)
	}
	return s, nil
}

// compareFiles prints, for every (workload, end-to-end metric), both
// medians, the change relative to the base, the bound and a verdict, and
// reports whether the change set passes: no regression and no higher
// failure share.
func compareFiles(w io.Writer, basePath, changePath string) (bool, error) {
	base, err := readSet(basePath)
	if err != nil {
		return false, err
	}
	change, err := readSet(changePath)
	if err != nil {
		return false, err
	}
	return compareSets(w, base, change), nil
}

// verdict judges one metric of one workload. worse is the change's median
// relative to the base's, signed so that positive is worse. When either
// set's own run-to-run spread exceeds the bound the pair cannot resolve a
// change of that size, whichever way the medians fall.
func verdict(d metricDecl, base, change []float64) (worse float64, v string) {
	b, c := median(base), median(change)
	worse = (c - b) / b
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case len(base) == 0 || len(change) == 0:
		return worse, "missing"
	case spread(base) > d.Bound || spread(change) > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regression"
	default:
		return worse, "ok"
	}
}

func compareSets(w io.Writer, base, change *set) bool {
	pass := true
	fmt.Fprintf(w, "base:   commit=%s backend=%s seed=%d seconds=%g\n", base.Header.Commit, base.Header.Backend, base.Seed, base.Seconds)
	fmt.Fprintf(w, "change: commit=%s backend=%s seed=%d seconds=%g\n", change.Header.Commit, change.Header.Backend, change.Seed, change.Seconds)
	for _, s := range []*set{base, change} {
		if len(s.Noisy) > 0 {
			fmt.Fprintf(w, "NOISY set (commit %s): calibration dropped before %v\n", s.Header.Commit, s.Noisy)
		}
	}
	fmt.Fprintf(w, "\n%-16s %-22s %13s %13s %-6s %16s %6s  %s\n",
		"workload", "metric", "base", "change", "unit", "change/base", "bound", "verdict")
	for i := range base.Workloads {
		bw := &base.Workloads[i]
		j := slices.IndexFunc(change.Workloads, func(c setWorkload) bool { return c.Name == bw.Name })
		if j < 0 {
			fmt.Fprintf(w, "%-16s missing from the change set\n", bw.Name)
			pass = false
			continue
		}
		cw := &change.Workloads[j]
		for _, d := range endToEnd {
			bv, cv := bw.values(d.Name), cw.values(d.Name)
			worse, v := verdict(d, bv, cv)
			if v == "regression" || v == "missing" {
				pass = false
			}
			fmt.Fprintf(w, "%-16s %-22s %13.6g %13.6g %-6s %7.4f (%+5.1f%%) %5.0f%%  %s",
				bw.Name, d.Name, median(bv), median(cv), d.Unit, median(cv)/median(bv), worse*100, d.Bound*100, v)
			if v == "unresolved" {
				fmt.Fprintf(w, " (spread base %.1f%%, change %.1f%%)", spread(bv)*100, spread(cv)*100)
			}
			fmt.Fprintln(w)
		}
		ba, bf := bw.failures()
		ca, cf := cw.failures()
		v := "ok"
		// Cross-multiplied so that 0/0 never divides.
		if cf*ba > bf*ca {
			v, pass = "more failures", false
		}
		fmt.Fprintf(w, "%-16s %-22s %13s %13s %-6s %16s %6s  %s\n", bw.Name, "steps failed/attempted",
			fmt.Sprintf("%d/%d", bf, ba), fmt.Sprintf("%d/%d", cf, ca), "count", "", "", v)
		fmt.Fprintf(w, "%-16s %-22s %s\n", bw.Name, "outputs", sameOutputs(bw, cw))
	}
	return pass
}

// sameOutputs says whether the two sets trained to the same numbers: equal
// unless the arithmetic changed. It informs; it is not a verdict.
func sameOutputs(base, change *setWorkload) string {
	if len(base.Runs) != len(change.Runs) {
		return "run counts differ"
	}
	for i, b := range base.Runs {
		c := change.Runs[i]
		if b.Seed != c.Seed {
			return "seeds differ; losses not comparable"
		}
		n := min(len(b.Losses), len(c.Losses))
		if !slices.Equal(b.Losses[:n], c.Losses[:n]) {
			return fmt.Sprintf("loss sequences differ (seed %d)", b.Seed)
		}
		if len(b.Losses) == len(c.Losses) && b.WeightsCRC != c.WeightsCRC {
			return fmt.Sprintf("final weights differ (seed %d)", b.Seed)
		}
	}
	return "loss sequences identical on their common steps; weights CRC equal where step counts match"
}
