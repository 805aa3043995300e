package weipipe

import (
	"flag"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCLIFlagParity builds weipipe-train and weipipe-launch and reads their
// -h: both list every run flag RunSpec.Bind declares, under the same name
// with the same help text — one flag set, not two that drift apart.
func TestCLIFlagParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds both CLIs")
	}
	dir := t.TempDir()
	usage := map[string]map[string]string{}
	line := regexp.MustCompile(`(?m)^  -(\S+).*\n((?:    \t.*\n?)*)`)
	for _, cmd := range []string{"weipipe-train", "weipipe-launch"} {
		bin := filepath.Join(dir, cmd)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
		// -h exits 0 and prints the flag list to stderr.
		out, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", cmd, err, out)
		}
		usage[cmd] = map[string]string{}
		for _, m := range line.FindAllStringSubmatch(string(out), -1) {
			usage[cmd][m[1]] = strings.TrimSpace(regexp.MustCompile(`\(default [^)]*\)`).ReplaceAllString(m[2], ""))
		}
	}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(RunSpec).Bind(fs)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		train, okT := usage["weipipe-train"][f.Name]
		launch, okL := usage["weipipe-launch"][f.Name]
		switch {
		case !okT || !okL:
			t.Errorf("-%s: listed by weipipe-train %v, by weipipe-launch %v", f.Name, okT, okL)
		case train != launch:
			t.Errorf("-%s: help differs:\n%s\nvs\n%s", f.Name, train, launch)
		}
	})
	if n < 15 {
		t.Fatalf("RunSpec.Bind declares %d flags; the CLIs share at least 15", n)
	}
}
