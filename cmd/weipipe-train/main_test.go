package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
		"-trace", tracePath, "-metrics")
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

func TestSmokeTrainRejectsTraceInRecoveryMode(t *testing.T) {
	out, err := runSelf(t, "-metrics", "-ckpt-every", "2")
	if err == nil || !strings.Contains(out, "not supported in recovery mode") {
		t.Fatalf("expected recovery-mode validation error, got err=%v:\n%s", err, out)
	}
}
