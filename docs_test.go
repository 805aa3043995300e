package weipipe

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests reads DESIGN.md, README.md and EXPERIMENTS.md
// and fails on any Test…, Benchmark… or Fuzz… name that no _test.go in the
// module defines, so a renamed or deleted test cannot leave a dead citation.
// A name followed by "…" is a prefix: BenchmarkFigure1… cites every
// benchmark whose name starts so.
func TestDocsCiteExistingTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*(…)?`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cite.FindAllString(string(text), -1) {
			prefix, isPrefix := strings.CutSuffix(name, "…")
			found := false
			for _, d := range defined {
				if d == name || isPrefix && strings.HasPrefix(d, prefix) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, which no _test.go defines", doc, name)
			}
		}
	}
}
