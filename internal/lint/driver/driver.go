// Package driver runs a set of sledlint analyzers over go-list
// package patterns, test files included, and renders the findings —
// the multichecker core behind cmd/sledlint, kept importable so tests
// can exercise exit codes and the report format without building the
// binary, and so the analyzer golden tests (internal/lint/linttest) run
// the same analysis loop through Analyze.
//
// Every rule is syntactic, so each matched package is analyzed on its
// own. Output is one file:line:col line per finding. No comment mutes a
// finding: it is fixed at its site, or the rule's scope is narrowed in
// its analyzer.
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
	diags, err := Analyze(analyzers, pkgs, fset)
	if err != nil {
		fmt.Fprintf(w, "sledlint: %v\n", err)
		return ExitError
	}
	out := renderable(fset, diags, baseDir(opts))
	for _, d := range out {
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
	}
	if len(out) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// Analyze applies every analyzer to pkgs and returns their diagnostics.
// A finding in a _test.go file is kept only from an analyzer that opts
// in (Analyzer.Tests).
func Analyze(analyzers []*analysis.Analyzer, pkgs []*load.Package, fset *token.FileSet) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, p := range pkgs {
		externalTest := p.Test && strings.HasSuffix(p.Path, "_test")
		for _, a := range analyzers {
			if externalTest && !a.Tests {
				continue // every file is a test file; nothing to keep
			}
			keepTests := a.Tests
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     p.Files,
				Pkg:       p.Types,
				PkgPath:   p.Path,
				TypesInfo: p.Info,
				Report: func(d analysis.Diagnostic) {
					if keepTests || !isTestFile(fset, d.Pos) {
						diags = append(diags, d)
					}
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, p.Path, err)
			}
		}
	}
	return diags, nil
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
