package sleds_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// programPath matches a cmd/ or examples/ directory named in prose.
var programPath = regexp.MustCompile(`\b(?:cmd|examples)/[a-z][a-z0-9_]*`)

// TestDocsNameEveryProgram: every cmd/ or examples/ path that README.md or
// DESIGN.md's module table names is an existing directory, and README
// names every directory under cmd/ and examples/.
func TestDocsNameEveryProgram(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "\n## System inventory\n")
	table, _, _ = strings.Cut(table, "\n## ")
	if !ok {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	named := map[string]bool{}
	for _, doc := range []struct{ name, text string }{
		{"README.md", string(readme)},
		{"DESIGN.md's module table", table},
	} {
		for _, p := range programPath.FindAllString(doc.text, -1) {
			if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc.name, p)
			}
			named[p] = named[p] || doc.name == "README.md"
		}
	}
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if fi, err := os.Stat(d); err == nil && fi.IsDir() && !named[filepath.ToSlash(d)] {
				t.Errorf("README.md does not name %s", d)
			}
		}
	}
}
