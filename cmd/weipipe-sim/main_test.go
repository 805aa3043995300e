package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"weipipe/internal/schedule"
)

// TestMain re-execs the test binary as the real CLI when the marker
// environment variable is set (see cmd/weipipe-train for the pattern).
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

func TestSmokeSimulate(t *testing.T) {
	out, err := runSelf(t,
		"-strategy", "wzb2", "-H", "512", "-S", "1024", "-G", "1",
		"-L", "4", "-N", "8", "-P", "4", "-topo", "nvlink")
	if err != nil {
		t.Fatalf("simulate failed: %v\n%s", err, out)
	}
	for _, want := range []string{"strategy", "throughput", "bubble ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// The workload line prints the recomputation the model ran: zb1 and zb2
// never recompute, whatever -recompute says.
func TestSmokeSimulateEchoesEffectiveRecompute(t *testing.T) {
	for s, want := range map[string]string{"zb1": "false", "zb2": "false", "1f1b": "true", "wzb2": "true"} {
		out, err := runSelf(t,
			"-strategy", s, "-H", "512", "-S", "1024", "-G", "1",
			"-L", "4", "-N", "8", "-P", "4", "-topo", "nvlink")
		if err != nil {
			t.Fatalf("%s: simulate failed: %v\n%s", s, err, out)
		}
		if !strings.Contains(out, "recompute="+want+"\n") {
			t.Errorf("%s: workload line does not say recompute=%s:\n%s", s, want, out)
		}
	}
}

func TestSmokeCompareTable(t *testing.T) {
	out, err := runSelf(t,
		"-compare", "-H", "512", "-S", "1024", "-G", "1",
		"-L", "4", "-N", "8", "-P", "4", "-topo", "nvlink")
	if err != nil {
		t.Fatalf("compare failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "tokens/s/GPU") {
		t.Fatalf("unexpected compare output:\n%s", out)
	}
	// One row per strategy the schedule builder compiles, the grouped
	// belt included.
	for _, s := range schedule.Strategies() {
		if !strings.Contains(out, "\n"+s+" ") {
			t.Errorf("compare table has no %s row:\n%s", s, out)
		}
	}
	if !strings.Contains(out, "\nwzb2g ") {
		t.Errorf("compare table has no wzb2g row:\n%s", out)
	}
}

func TestSmokeRejectsUnknownTopology(t *testing.T) {
	if out, err := runSelf(t, "-topo", "carrier-pigeon"); err == nil {
		t.Fatalf("expected failure, got:\n%s", out)
	}
}
