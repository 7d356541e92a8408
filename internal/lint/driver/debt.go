package driver

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/load"
)

// The debt report (`sledlint -debt`) enumerates every well-formed
// //sledlint:allow directive in the matched packages: which rules it
// mutes and the reason given. The suppression mechanism stays honest
// because it is inspectable in one command — CI's lint job prints the
// report, so a PR that adds a directive shows it in the log, reviewed
// next to the code it excuses.

// debtEntry is one directive in the report.
type debtEntry struct {
	File      string
	Line      int
	Analyzers []string
	Reason    string
}

// debtReport renders the directive inventory and always exits clean:
// debt is information, not a failure — a new directive is reviewed in
// the diff that adds it.
func debtReport(pkgs []*load.Package, fset *token.FileSet, w io.Writer, base string) int {
	var entries []debtEntry
	for _, p := range pkgs {
		for _, d := range analysis.CollectDirectives(fset, p.Files) {
			pos := fset.Position(d.Pos)
			entries = append(entries, debtEntry{
				File:      relPath(base, pos.Filename),
				Line:      pos.Line,
				Analyzers: d.Analyzers,
				Reason:    d.Reason,
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	for _, e := range entries {
		fmt.Fprintf(w, "%s:%d: allow %s -- %s\n", e.File, e.Line, strings.Join(e.Analyzers, ","), e.Reason)
	}
	fmt.Fprintf(w, "sledlint: %d allow directive(s)\n", len(entries))
	return ExitClean
}
