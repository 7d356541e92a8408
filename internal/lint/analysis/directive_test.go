package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text      string
		names     []string
		malformed string // substring of the problem, "" = well-formed
	}{
		{"//sledlint:allow wallclock -- boot banner", []string{"wallclock"}, ""},
		{"//sledlint:allow wallclock,simtime -- shared reason", []string{"wallclock", "simtime"}, ""},
		{"//sledlint:allow wallclock", nil, "missing"},
		{"//sledlint:allow wallclock --", nil, "empty reason"},
		{"//sledlint:allow -- reason with no names", nil, "no analyzer names"},
		{"//sledlint:allowed something else entirely", nil, ""}, // not our directive
	}
	for _, c := range cases {
		names, problem := parseDirective(c.text)
		if c.malformed == "" {
			if problem != "" {
				t.Errorf("%q: unexpected problem %q", c.text, problem)
			}
			if strings.Join(names, "|") != strings.Join(c.names, "|") {
				t.Errorf("%q: names = %v, want %v", c.text, names, c.names)
			}
			continue
		}
		if !strings.Contains(problem, c.malformed) {
			t.Errorf("%q: problem = %q, want substring %q", c.text, problem, c.malformed)
		}
	}
}

const directiveSrc = `package p

func Partial(x int) {
	sink(x) //sledlint:allow demo -- same line
	//sledlint:allow demo -- next line
	sink(x)
	sink(x)
}

func sink(int) {}
`

func TestSuppressionSpans(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	s := CollectSuppressions(fset, []*ast.File{f}, []*Analyzer{{Name: "demo"}})
	if len(s.Malformed) != 0 {
		t.Fatalf("unexpected malformed directives: %v", s.Malformed)
	}
	// Line numbers in directiveSrc (1-based).
	covered := []int{4, 5, 6}
	uncovered := []int{3, 7, 10}
	file := fset.File(f.Pos())
	for _, line := range covered {
		if !s.Suppressed(fset, "demo", file.LineStart(line)) {
			t.Errorf("line %d: expected suppressed", line)
		}
	}
	for _, line := range uncovered {
		if s.Suppressed(fset, "demo", file.LineStart(line)) {
			t.Errorf("line %d: expected NOT suppressed", line)
		}
	}
	if s.Suppressed(fset, "other", file.LineStart(4)) {
		t.Error("directive for \"demo\" must not suppress analyzer \"other\"")
	}
}
