package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"weipipe/internal/bench"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated blocks and the committed JSON reports")

// experimentsDoc is the curated results file, relative to this package.
const experimentsDoc = "../../EXPERIMENTS.md"

// generatedBlock is one generated block of EXPERIMENTS.md: a marker naming
// the experiments it holds, their output in a fenced block, and an end
// marker.
var generatedBlock = regexp.MustCompile("(?s)<!-- weipipe-bench -exp ([a-z0-9 -]+) -->\n```\n(.*?)```\n<!-- end -->")

// generated is what a block naming ids holds: each experiment's -exp output
// with trailing spaces trimmed, one blank line between experiments.
func generated(ids []string) (string, error) {
	var parts []string
	for _, id := range ids {
		var buf bytes.Buffer
		if err := run(&buf, id, 96); err != nil {
			return "", err
		}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		for i, l := range lines {
			lines[i] = strings.TrimRight(l, " ")
		}
		parts = append(parts, strings.Join(lines, "\n"))
	}
	return strings.Join(parts, "\n\n") + "\n", nil
}

// TestExperimentsDocIsGenerated: EXPERIMENTS.md's simulated tables and
// figures are the cost model's output, not copies of it. Each generated
// block holds exactly what `weipipe-bench -exp <id>` prints for the
// experiments its marker names, and the blocks hold every experiment of
// bench.Experiments once. After a change that moves the model,
//
//	go test ./cmd/weipipe-bench -run ExperimentsDoc -update
//
// rewrites the blocks; the prose around them is the author's to check.
func TestExperimentsDocIsGenerated(t *testing.T) {
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	var stale []string
	var genErr error
	fresh := generatedBlock.ReplaceAllStringFunc(string(doc), func(block string) string {
		m := generatedBlock.FindStringSubmatch(block)
		ids := strings.Fields(m[1])
		body, err := generated(ids)
		if err != nil {
			genErr = err
			return block
		}
		for _, id := range ids {
			seen[id]++
		}
		if body != m[2] {
			stale = append(stale, m[1])
		}
		return fmt.Sprintf("<!-- weipipe-bench -exp %s -->\n```\n%s```\n<!-- end -->", m[1], body)
	})
	if genErr != nil {
		t.Fatal(genErr)
	}
	for _, e := range bench.Experiments {
		if seen[e.ID] != 1 {
			t.Errorf("EXPERIMENTS.md holds experiment %s in %d generated blocks, want 1", e.ID, seen[e.ID])
		}
	}
	if *update {
		if err := os.WriteFile(experimentsDoc, []byte(fresh), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(stale) > 0 {
		t.Errorf("EXPERIMENTS.md's generated blocks %q differ from the model; rerun with -update", stale)
	}
}

// TestCommittedReportsAreGenerated: BENCH_sweep.json and BENCH_grouped.json
// are what `weipipe-bench -report sweep|grouped` writes, byte for byte. Both
// are deterministic (cost model, byte meters, no wall clocks). After a change
// that moves them,
//
//	go test ./cmd/weipipe-bench -run CommittedReports -update
//
// rewrites them.
func TestCommittedReportsAreGenerated(t *testing.T) {
	for _, name := range []string{"sweep", "grouped"} {
		committed := "../../BENCH_" + name + ".json"
		path := committed
		if !*update {
			path = filepath.Join(t.TempDir(), name+".json")
		}
		if err := bench.RunReport(io.Discard, name, path, false); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(committed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from `weipipe-bench -report %s`; rerun with -update", committed, name)
		}
	}
}
