// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built on the standard
// library only.
//
// The repository's build must work with an empty module cache and no
// network (the CI container is offline except for the pinned
// staticcheck fetch), so the real x/tools module cannot be a
// dependency. This package mirrors the x/tools API surface that the
// sledlint analyzers need — Analyzer, Pass, Diagnostic, Reportf, and
// object facts (facts.go) for the inter-procedural rules — so that
// migrating to the upstream framework later is a mechanical import swap,
// not a rewrite. Dependencies between analyzers and suggested fixes are
// omitted: no rule consumes another's result or proposes an edit.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sleds/internal/lint/callgraph"
)

// Analyzer describes one sledlint rule: a named, documented check that
// runs once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sledlint:allow directives. Lower-case, no spaces.
	Name string

	// Doc is the analyzer's help text. The first line is a one-line
	// summary shown by `sledlint -help`.
	Doc string

	// Run applies the rule to a single type-checked package,
	// reporting findings through pass.Reportf.
	Run func(*Pass) error

	// UsesFacts marks inter-procedural analyzers. The driver runs them
	// over dependency packages outside the requested patterns (with
	// diagnostics discarded) so their per-function summaries exist
	// before dependents are checked; purely syntactic analyzers skip
	// that extra work.
	UsesFacts bool

	// Tests opts the analyzer into _test.go files, which the driver
	// always loads. Rules whose violations are only meaningful in
	// simulator code (simtime's duration literals, say) leave it false
	// and keep their findings scoped to non-test files.
	Tests bool
}

// Pass carries one type-checked package through one analyzer. It is
// the x/tools analysis.Pass, minus result passing.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path; types.Package.Path is unset for ad-hoc testdata loads
	TypesInfo *types.Info

	// Facts is the run-wide fact store. The driver guarantees that
	// when this pass runs, every module-local package this one imports
	// has already been analyzed, so facts on imported objects are
	// present.
	Facts *FactSet

	// Graph is the deterministic static call graph over every package
	// in the run's dependency closure.
	Graph *callgraph.Graph

	// Suppressions indexes this package's //sledlint:allow directives.
	// The driver applies them to diagnostics after the pass; analyzers
	// that *summarize* code into facts (hotalloc's allocation sites)
	// also consult them directly, so a reasoned directive at a site
	// excludes it from cross-package reports too.
	Suppressions *Suppressions

	// Report receives each diagnostic. The driver installs a
	// collector here; analyzers normally call Reportf instead.
	Report func(Diagnostic)
}

// ExportObjectFact records fact for obj in the run's fact store.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.Facts.ExportObjectFact(obj, fact)
}

// ImportObjectFact copies obj's fact of ptr's type into *ptr.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.Facts.ImportObjectFact(obj, ptr)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: which rule fired, where, and why.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Within reports whether pkgpath is root or any package below root.
// Analyzers use it to scope rules to parts of the module ("everything
// under sleds/internal", "nothing under sleds/cmd").
func Within(pkgpath string, roots ...string) bool {
	for _, root := range roots {
		if pkgpath == root || strings.HasPrefix(pkgpath, root+"/") {
			return true
		}
	}
	return false
}
