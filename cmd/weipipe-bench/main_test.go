package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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

func TestSmokeList(t *testing.T) {
	out, err := runSelf(t, "-list")
	if err != nil {
		t.Fatalf("list failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "table2") || !strings.Contains(out, "fig9") {
		t.Fatalf("unexpected -list output:\n%s", out)
	}
}

func TestSmokeFigure(t *testing.T) {
	out, err := runSelf(t, "-exp", "fig4", "-width", "40")
	if err != nil {
		t.Fatalf("fig4 failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "wzb2") || !strings.Contains(out, "bubble") {
		t.Fatalf("unexpected fig4 output:\n%s", out)
	}
}

func TestSmokeUnknownExperiment(t *testing.T) {
	if out, err := runSelf(t, "-exp", "nope"); err == nil {
		t.Fatalf("expected failure, got:\n%s", out)
	}
}
