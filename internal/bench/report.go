package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The JSON reports of `weipipe-bench -report`: the cost model's sweep
// (BENCH_sweep.json), the grouped-belt traffic report (BENCH_grouped.json)
// and the kernel A/B. Each is produced, written, summarised, read back and
// gated by the one path below; the sweep has no gate.

// report is one named report's path from evaluation to file to gate.
type report struct {
	write func(w io.Writer, path string) error
	check func(path string) error // nil when the report has no gate
}

// reportOf wires a report: run produces it, summary echoes it once it is
// written, and gate (nil for none) judges it as read back from the file.
func reportOf[T any](run func() (*T, error), summary func(io.Writer, *T), gate func(*T) error) report {
	r := report{write: func(w io.Writer, path string) error {
		rep, err := run()
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			return err
		}
		summary(w, rep)
		fmt.Fprintf(w, "  written to %s\n", path)
		return nil
	}}
	if gate != nil {
		r.check = func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rep := new(T)
			if err := json.Unmarshal(raw, rep); err != nil {
				return err
			}
			return gate(rep)
		}
	}
	return r
}

var reports = map[string]report{
	"sweep":   reportOf(runSweep, printSweep, nil),
	"grouped": reportOf(runGrouped, printGrouped, checkGrouped),
	"kernel":  reportOf(runKernel, printKernel, checkKernel),
}

// RunReport produces the named report (sweep, grouped or kernel), writes it
// to path as indented JSON and echoes a summary to w. With check set it then
// reads the file back and fails unless the report passes its gate.
func RunReport(w io.Writer, name, path string, check bool) error {
	r, ok := reports[name]
	switch {
	case !ok:
		return fmt.Errorf("unknown report %q (sweep, grouped or kernel)", name)
	case check && r.check == nil:
		return fmt.Errorf("report %s has no gate to check", name)
	}
	if err := r.write(w, path); err != nil {
		return err
	}
	if !check {
		return nil
	}
	if err := r.check(path); err != nil {
		return fmt.Errorf("%s guard: %s: %w", name, path, err)
	}
	fmt.Fprintf(w, "%s guard: %s ok\n", name, path)
	return nil
}
