// Package driver runs a set of sledlint analyzers over go-list
// package patterns, test files included, and renders the findings —
// the multichecker core behind cmd/sledlint, kept importable so tests
// can exercise exit codes and the report format without building the
// binary, and so the analyzer golden tests (internal/lint/linttest) run
// the same analysis loop through Analyze.
//
// The driver provides the inter-procedural substrate: it analyzes the
// module-local dependency closure of the matched packages in
// topological order, sharing one fact store and one call graph, so an
// analyzer checking package P can import facts exported while its
// dependencies were analyzed (dependency packages run with their
// diagnostics discarded — only matched packages report). Output is one
// file:line:col line per finding. The one way to accept a finding is a
// //sledlint:allow directive next to the code; -debt enumerates every
// directive with its reason.
package driver

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/callgraph"
	"sleds/internal/lint/load"
)

// Exit codes, mirroring the x/tools multichecker convention.
const (
	ExitClean    = 0 // no findings
	ExitFindings = 1 // at least one diagnostic
	ExitError    = 2 // load/typecheck/usage failure
)

// Options configures one run.
type Options struct {
	Dir string // working directory for go list; "" = process cwd

	// Debt switches the run to the directive report: every well-formed
	// //sledlint:allow in the matched packages, with its rule list and
	// reason. Informational; always exits clean.
	Debt bool
}

// finding is one diagnostic resolved to a repo-relative position, the
// form the report sorts and prints.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// Run applies every analyzer to every package matching patterns, test
// files included, writes the report to w, and returns the exit code.
func Run(analyzers []*analysis.Analyzer, patterns []string, w io.Writer, opts Options) int {
	pkgs, fset, err := load.Packages(opts.Dir, patterns...)
	if err != nil {
		fmt.Fprintf(w, "sledlint: %v\n", err)
		return ExitError
	}
	base := baseDir(opts)
	if opts.Debt {
		return debtReport(pkgs, fset, w, base)
	}
	diags, err := Analyze(analyzers, pkgs, fset)
	if err != nil {
		fmt.Fprintf(w, "sledlint: %v\n", err)
		return ExitError
	}
	out := renderable(fset, diags, base)
	for _, d := range out {
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
	}
	if len(out) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// Analyze applies every analyzer to roots and returns the diagnostics
// reported in roots that no //sledlint:allow directive covers, plus one
// per malformed directive. The roots' module-local dependency closure is
// analyzed first, in topological order over one fact store and one call
// graph, with only the fact-producing analyzers run there and their
// diagnostics discarded. A finding in a _test.go file is kept only from
// an analyzer that opts in (Analyzer.Tests).
func Analyze(analyzers []*analysis.Analyzer, roots []*load.Package, fset *token.FileSet) ([]analysis.Diagnostic, error) {
	target := make(map[*load.Package]bool, len(roots))
	for _, p := range roots {
		target[p] = true
	}
	closure := load.Closure(roots)

	facts := analysis.NewFactSet()
	graph := callgraph.New()
	for _, p := range closure {
		graph.AddPackage(p.Files, p.Info)
	}

	var all []analysis.Diagnostic
	for _, p := range closure {
		sup := analysis.CollectSuppressions(fset, p.Files)
		externalTest := p.Test && strings.HasSuffix(p.Path, "_test")
		var diags []analysis.Diagnostic
		for _, a := range analyzers {
			if !target[p] && !a.UsesFacts {
				continue // dependency package: only fact producers run
			}
			if externalTest && !a.Tests {
				continue // every file is a test file; nothing to keep
			}
			report := func(analysis.Diagnostic) {}
			if target[p] {
				keepTests := a.Tests
				report = func(d analysis.Diagnostic) {
					if !keepTests && isTestFile(fset, d.Pos) {
						return
					}
					diags = append(diags, d)
				}
			}
			pass := &analysis.Pass{
				Analyzer:     a,
				Fset:         fset,
				Files:        p.Files,
				Pkg:          p.Types,
				PkgPath:      p.Path,
				TypesInfo:    p.Info,
				Facts:        facts,
				Graph:        graph,
				Suppressions: sup,
				Report:       report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, p.Path, err)
			}
		}
		if target[p] {
			all = append(all, sup.Filter(fset, diags)...)
		}
	}
	return all, nil
}

func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

func baseDir(opts Options) string {
	if opts.Dir != "" {
		return opts.Dir
	}
	wd, _ := os.Getwd()
	return wd
}

// relPath returns file relative to base when it lies under base, and
// file unchanged otherwise.
func relPath(base, file string) string {
	if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// renderable converts diagnostics to the sorted, repo-relative form
// the report prints.
func renderable(fset *token.FileSet, all []analysis.Diagnostic, base string) []finding {
	out := make([]finding, 0, len(all))
	for _, d := range all {
		p := fset.Position(d.Pos)
		out = append(out, finding{
			File:     relPath(base, p.Filename),
			Line:     p.Line,
			Col:      p.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
