// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built on the standard
// library only.
//
// The repository's build must work with an empty module cache and no
// network (the CI container is offline except for the pinned
// staticcheck fetch), so the real x/tools module cannot be a
// dependency. This package mirrors the x/tools API surface that the
// sledlint analyzers need — Analyzer, Pass, Diagnostic and Reportf —
// so that migrating to the upstream framework later is a mechanical
// import swap, not a rewrite. Facts, dependencies between analyzers and
// suggested fixes are omitted: every rule is syntactic, none consumes
// another's result, and none proposes an edit.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one sledlint rule: a named, documented check that
// runs once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. Lower-case, no
	// spaces.
	Name string

	// Doc is the analyzer's help text. The first line is a one-line
	// summary shown by `sledlint -help`.
	Doc string

	// Run applies the rule to a single type-checked package,
	// reporting findings through pass.Reportf.
	Run func(*Pass) error

	// Tests opts the analyzer into _test.go files, which the driver
	// always loads. Rules whose violations are only meaningful in
	// simulator code (simtime's duration literals, say) leave it false
	// and keep their findings scoped to non-test files.
	Tests bool
}

// Pass carries one type-checked package through one analyzer. It is
// the x/tools analysis.Pass, minus facts and result passing.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string // import path; types.Package.Path is unset for ad-hoc testdata loads
	TypesInfo *types.Info

	// Report receives each diagnostic. The driver installs a
	// collector here; analyzers normally call Reportf instead.
	Report func(Diagnostic)
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
