package driver

import (
	"fmt"
	"go/token"
	"io"
	"path/filepath"
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
func debtReport(pkgs []*load.Package, fset *token.FileSet, w io.Writer, opts Options) int {
	base := baseDir(opts)
	var entries []debtEntry
	for _, p := range pkgs {
		for _, d := range analysis.CollectDirectives(fset, p.Files) {
			pos := fset.Position(d.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(base, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			entries = append(entries, debtEntry{
				File:      file,
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
	// The test-augmented variant repeats its pristine twin's files;
	// dedupe on file:line.
	deduped := entries[:0]
	for i, e := range entries {
		if i > 0 && e.File == entries[i-1].File && e.Line == entries[i-1].Line {
			continue
		}
		deduped = append(deduped, e)
	}
	entries = deduped

	for _, e := range entries {
		fmt.Fprintf(w, "%s:%d: allow %s -- %s\n", e.File, e.Line, strings.Join(e.Analyzers, ","), e.Reason)
	}
	fmt.Fprintf(w, "sledlint: %d allow directive(s)\n", len(entries))
	return ExitClean
}
