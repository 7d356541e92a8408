// Package linttest is a self-contained stand-in for
// golang.org/x/tools/go/analysis/analysistest (unavailable offline;
// see internal/lint/analysis). It runs one analyzer over an annotated
// testdata package and compares the diagnostics against `// want`
// comments:
//
//	time.Sleep(d) // want `time\.Sleep`
//
// Each `// want` comment holds one or more backquoted regular
// expressions, all of which must be matched by distinct diagnostics on
// that line. Diagnostics with no matching expectation, and
// expectations with no matching diagnostic, fail the test.
package linttest

import (
	"go/token"
	"regexp"
	"sort"
	"testing"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/load"
)

var wantRe = regexp.MustCompile("(?://|/\\*) want (`[^`]*`(?: `[^`]*`)*)")
var wantExprRe = regexp.MustCompile("`([^`]*)`")

// Run loads dir as a package with the given import path, applies the
// analyzer through driver.Analyze — the loop sledlint itself runs — and
// checks the result against the package's `// want` annotations. It
// returns the diagnostics so callers can make extra assertions.
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) []analysis.Diagnostic {
	t.Helper()
	pkg, fset, err := load.Dir(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := driver.Analyze([]*analysis.Analyzer{a}, []*load.Package{pkg}, fset)
	if err != nil {
		t.Fatal(err)
	}

	// Gather expectations: file:line -> regexps.
	type key struct {
		file string
		line int
	}
	want := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, em := range wantExprRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(em[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, em[1], err)
					}
					want[k] = append(want[k], re)
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, re := range want[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", position(fset, d.Pos), d.Message, d.Analyzer)
			continue
		}
		want[k] = append(want[k][:matched], want[k][matched+1:]...)
	}
	for k, res := range want {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
	return diags
}

func position(fset *token.FileSet, pos token.Pos) string {
	return fset.Position(pos).String()
}
