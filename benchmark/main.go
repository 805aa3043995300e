// Command benchmark measures real WeiPipe training steps — end to end and
// layer by layer — on four workloads. See README.md.
//
//	benchmark -workload long-wzb2 -seed 1 -seconds 10 -trace 0   one run
//	benchmark -reps 3 -out set.json                              a full set
//	benchmark -compare base.json change.json                     verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload (default: a full set of all workloads, each run in a fresh child process)")
		seed    = flag.Uint64("seed", 1, "derives the model seed and every microbatch")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		tiny    = flag.Bool("tiny", false, "smoke-test shapes and step counts; -seconds is ignored")
		dir     = flag.String("dir", ".bench_build", "directory for the Chrome trace and scratch files")
		out     = flag.String("out", "", "write the full result (one run) or the set (default <dir>/set.json) here as JSON")
		reps    = flag.Int("reps", 3, "full set: tracing-off runs per workload, on seeds seed, seed+1, ...")
		compare = flag.Bool("compare", false, "compare two set files: benchmark -compare base.json change.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two set files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		set, err := runSet(setConfig{seed: *seed, seconds: *seconds, reps: *reps, tiny: *tiny, dir: *dir})
		if err != nil {
			fatal(err)
		}
		path := *out
		if path == "" {
			path = filepath.Join(*dir, "set.json")
		}
		if err := writeJSON(path, set); err != nil {
			fatal(err)
		}
		set.print(os.Stdout)
		fmt.Printf("set written to %s\n", path)
		if !set.correct() {
			os.Exit(1)
		}
	default:
		wl, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(runConfig{wl: wl, seed: *seed, seconds: *seconds, traced: *traced != 0, tiny: *tiny, dir: *dir})
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatal(err)
			}
		}
		res.print(os.Stderr)
		// The contract line: the last line of stdout.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
