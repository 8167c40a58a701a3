package elin

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingCode: every Test, Benchmark or Fuzz function and every
// .go file that DESIGN.md, EXPERIMENTS.md or README.md names exists in the
// tree. A name written as a family — followed by "*", or quoted as a
// -bench or -run pattern — needs a function it begins.
func TestDocsCiteExistingCode(t *testing.T) {
	declared := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	var funcs, files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != ".":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declared.FindAllSubmatch(src, -1) {
				funcs = append(funcs, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cited := regexp.MustCompile(`(['"]?)\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)|[\w./-]*\w\.go\b`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cited.FindAllStringSubmatch(string(text), -1) {
			name, family := m[2], m[1] != "" || m[3] != ""
			found := false
			for _, f := range funcs {
				found = found || f == name || family && strings.HasPrefix(f, name)
			}
			if name == "" {
				name = m[0]
				for _, f := range files {
					found = found || f == name || strings.HasSuffix(f, "/"+name)
				}
			}
			if !found {
				t.Errorf("%s names %s, which is not in the tree", doc, name)
			}
		}
	}
}
