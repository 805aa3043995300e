package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"weipipe/internal/checkpoint"
	"weipipe/internal/trace"
)

// TestMain re-execs the test binary as the real CLI when the marker
// environment variable is set, so smoke tests exercise main() — flag
// parsing included — without a separate `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("WEIPIPE_SMOKE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runSelf(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WEIPIPE_SMOKE_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestSmokeTrainWithTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "out.json")
	out, err := runSelf(t,
		"-p", "2", "-strategy", "wzb2",
		"-iters", "1", "-n", "2", "-g", "1",
		"-hidden", "16", "-layers", "2", "-heads", "2", "-seq", "8", "-vocab", "32",
		"-trace", tracePath)
	if err != nil {
		t.Fatalf("train failed: %v\n%s", err, out)
	}
	for _, want := range []string{"iter   0", "step time", "exposed comm", "trace written to"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, meta, err := trace.ParseChrome(blob)
	if err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	if meta == nil || meta.Strategy != "wzb2" || meta.P != 2 {
		t.Fatalf("trace meta = %+v", meta)
	}
	if len(events) == 0 {
		t.Fatal("trace carries no events")
	}
}

func TestSmokeTrainRejectsUnknownStrategy(t *testing.T) {
	out, err := runSelf(t, "-strategy", "bogus", "-p", "2", "-iters", "1")
	if err == nil {
		t.Fatalf("expected failure, got:\n%s", out)
	}
	if !strings.Contains(out, "unknown strategy") {
		t.Fatalf("unexpected error output:\n%s", out)
	}
}

func TestSmokeTrainRejectsChaosWithoutTCP(t *testing.T) {
	out, err := runSelf(t, "-chaos", "0.1")
	if err == nil || !strings.Contains(out, "requires -tcp") {
		t.Fatalf("expected -chaos/-tcp validation error, got err=%v:\n%s", err, out)
	}
}

// tinyModel keeps the smoke runs fast.
var tinyModel = []string{"-hidden", "16", "-layers", "2", "-heads", "2", "-seq", "8", "-vocab", "32"}

// Tracing rides the same loop as recovery: a checkpointing, restartable run
// yields a trace with one step span per rank per iteration.
func TestSmokeTrainTracesInRecoveryMode(t *testing.T) {
	const p, iters = 2, 3
	tracePath := filepath.Join(t.TempDir(), "out.json")
	out, err := runSelf(t, append([]string{
		"-p", "2", "-iters", "3", "-n", "2", "-g", "1",
		"-ckpt-every", "1", "-max-restarts", "1", "-trace", tracePath}, tinyModel...)...)
	if err != nil {
		t.Fatalf("train failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "step time") {
		t.Fatalf("no -trace rollup:\n%s", out)
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, _, err := trace.ParseChrome(blob)
	if err != nil {
		t.Fatalf("trace file invalid: %v", err)
	}
	steps := map[string]int{}
	for _, e := range events {
		if e.Name == trace.CodeStep.String() {
			steps[fmt.Sprintf("rank %d iter %s", e.Pid, e.Args["iter"])]++
		}
	}
	if len(steps) != p*iters {
		t.Fatalf("step spans cover %d (rank, iteration) pairs, want %d: %v", len(steps), p*iters, steps)
	}
	for k, n := range steps {
		if n != 1 {
			t.Fatalf("%s: %d step spans, want 1", k, n)
		}
	}
}

// Re-running a checkpointing command resumes it: the first run leaves its
// final iteration's full-state checkpoint at -checkpoint (not a weight-only
// snapshot over it), so the second run finds all 3 iterations done.
func TestSmokeTrainRerunResumesFromCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "m.wpck")
	args := append([]string{"-p", "2", "-iters", "3", "-ckpt-every", "2", "-max-restarts", "1",
		"-checkpoint", ckpt}, tinyModel...)
	out, err := runSelf(t, args...)
	if err != nil || !strings.Contains(out, "iter   2") {
		t.Fatalf("first run: err=%v\n%s", err, out)
	}
	out, err = runSelf(t, args...)
	if err != nil {
		t.Fatalf("second run failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "iter ") {
		t.Fatalf("second run retrained instead of resuming at iteration 3:\n%s", out)
	}
	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 3 || snap.Sections["adam.m"] == nil {
		t.Fatalf("checkpoint at step %d (optimizer state: %v), want a full-state one at 3",
			snap.Step, snap.Sections["adam.m"] != nil)
	}
}

// The hybrid is a strategy of the one loop: it checkpoints, and a longer
// re-run resumes from its checkpoint onto the uninterrupted trajectory.
func TestSmokeTrainWeiPipeDP(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "dp.wpck")
	dp := append([]string{"-strategy", "weipipe-dp", "-group-size", "2", "-p", "4", "-stats"}, tinyModel...)
	out, err := runSelf(t, append(dp, "-iters", "2", "-ckpt-every", "1", "-max-restarts", "1", "-checkpoint", ckpt)...)
	if err != nil {
		t.Fatalf("train failed: %v\n%s", err, out)
	}
	for _, want := range []string{"training weipipe-dp on 4 workers", "iter   1", "link tiers (groups of 2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	resumed, err := runSelf(t, append(dp, "-iters", "3", "-ckpt-every", "1", "-max-restarts", "1", "-checkpoint", ckpt)...)
	if err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, resumed)
	}
	whole, err := runSelf(t, append(dp, "-iters", "3")...)
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v\n%s", err, whole)
	}
	if strings.Contains(resumed, "iter   1") {
		t.Fatalf("the longer re-run retrained instead of resuming at iteration 2:\n%s", resumed)
	}
	iter2 := func(out string) string {
		i := strings.Index(out, "iter   2")
		if i < 0 {
			t.Fatalf("no iteration 2:\n%s", out)
		}
		return out[i : i+strings.IndexByte(out[i:], '\n')]
	}
	if a, b := iter2(resumed), iter2(whole); a != b {
		t.Fatalf("resumed %q, uninterrupted %q", a, b)
	}
}
