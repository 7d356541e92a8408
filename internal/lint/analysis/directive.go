package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Suppression directives.
//
// Every sledlint rule honors the same comment-driven escape hatch:
//
//	//sledlint:allow <analyzer>[,<analyzer>...] -- <reason>
//
// The reason is mandatory; a directive without "-- <reason>" never
// suppresses anything and is itself reported as a finding, so the
// escape hatch cannot silently decay into a blanket mute.
//
// A directive covers its own source line (trailing comment on the
// offending line) and the line immediately below it (standalone comment
// above the offending statement), so each accepted finding carries its
// own reason.
//
// allow is the only marker: any other //sledlint:<word> comment is a
// finding (see CollectSuppressions), so a marker whose rule is gone
// cannot linger.

// DirectivePrefix is the comment prefix shared by all analyzers.
const DirectivePrefix = "//sledlint:allow"

// Directive is one well-formed //sledlint:allow occurrence — the unit
// of the debt report (`sledlint -debt`), which makes every accepted
// exception enumerable with its rule and reason.
type Directive struct {
	Pos       token.Pos
	Analyzers []string
	Reason    string
}

// CollectDirectives returns every well-formed allow directive in the
// files, in source order.
func CollectDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, DirectivePrefix) {
					continue
				}
				names, bad := parseDirective(c.Text)
				if bad != "" || len(names) == 0 {
					continue
				}
				_, reason, _ := strings.Cut(strings.TrimPrefix(c.Text, DirectivePrefix), "--")
				out = append(out, Directive{
					Pos:       c.Pos(),
					Analyzers: names,
					Reason:    strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// lineSpan is an inclusive range of lines in one file.
type lineSpan struct{ from, to int }

// Suppressions indexes every well-formed //sledlint:allow directive in
// a package, plus diagnostics for the malformed ones.
type Suppressions struct {
	// spans maps file name -> analyzer name -> covered line spans.
	spans map[string]map[string][]lineSpan

	// Malformed holds one diagnostic per invalid directive (missing
	// "--", empty reason, no analyzer names, an analyzer the suite does
	// not run) and per unknown //sledlint:<word> marker. These are real
	// findings: they are reported by the driver under the analyzer name
	// "directive" and cannot be self-suppressed.
	Malformed []Diagnostic
}

// CollectSuppressions scans the files' comments for directives. A
// directive that names an analyzer outside suite, and a marker other
// than allow, mute nothing and are reported as malformed: each is a
// typo or the leftover of a rule that is gone.
func CollectSuppressions(fset *token.FileSet, files []*ast.File, suite []*Analyzer) *Suppressions {
	s := &Suppressions{spans: make(map[string]map[string][]lineSpan)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, ok := strings.CutPrefix(c.Text, "//sledlint:")
				if !ok {
					continue
				}
				if i := strings.IndexAny(word, " \t"); i >= 0 {
					word = word[:i]
				}
				var names []string
				var bad string
				if word == "allow" {
					if names, bad = parseDirective(c.Text); bad == "" {
						bad = unknownAnalyzer(names, suite)
					}
				} else {
					bad = "unknown marker //sledlint:" + word + "; the only marker is allow"
				}
				if bad != "" {
					s.Malformed = append(s.Malformed, Diagnostic{
						Analyzer: "directive",
						Pos:      c.Pos(),
						Message:  bad,
					})
					continue
				}
				pos := fset.Position(c.Pos())
				span := lineSpan{from: pos.Line, to: pos.Line + 1}
				byAnalyzer := s.spans[pos.Filename]
				if byAnalyzer == nil {
					byAnalyzer = make(map[string][]lineSpan)
					s.spans[pos.Filename] = byAnalyzer
				}
				for _, name := range names {
					byAnalyzer[name] = append(byAnalyzer[name], span)
				}
			}
		}
	}
	return s
}

// unknownAnalyzer describes the first of names that no analyzer in suite
// carries, or returns "" when the suite runs them all.
func unknownAnalyzer(names []string, suite []*Analyzer) string {
	for _, name := range names {
		if !slices.ContainsFunc(suite, func(a *Analyzer) bool { return a.Name == name }) {
			return DirectivePrefix + " names " + name + ", which is no analyzer in the suite"
		}
	}
	return ""
}

// parseDirective splits the text after the prefix into analyzer names
// and validates the mandatory reason. It returns the names and, for a
// malformed directive, a non-empty problem description.
func parseDirective(text string) (names []string, problem string) {
	rest := strings.TrimPrefix(text, DirectivePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		// e.g. //sledlint:allowed — not our directive.
		return nil, ""
	}
	namePart, reason, found := strings.Cut(rest, "--")
	if !found {
		return nil, "malformed " + DirectivePrefix + " directive: missing \"-- <reason>\""
	}
	if strings.TrimSpace(reason) == "" {
		return nil, "malformed " + DirectivePrefix + " directive: empty reason after \"--\""
	}
	for _, name := range strings.Split(strings.TrimSpace(namePart), ",") {
		name = strings.TrimSpace(name)
		if name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, "malformed " + DirectivePrefix + " directive: no analyzer names before \"--\""
	}
	return names, ""
}

// Suppressed reports whether a diagnostic from the named analyzer at
// pos is covered by a directive.
func (s *Suppressions) Suppressed(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	for _, span := range s.spans[p.Filename][name] {
		if span.from <= p.Line && p.Line <= span.to {
			return true
		}
	}
	return false
}

// Filter returns the diagnostics not covered by a directive. Malformed
// directives are appended as findings of their own.
func (s *Suppressions) Filter(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		if !s.Suppressed(fset, d.Analyzer, d.Pos) {
			kept = append(kept, d)
		}
	}
	return append(kept, s.Malformed...)
}
