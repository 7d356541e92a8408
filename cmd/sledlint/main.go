// Command sledlint is the repository's determinism linter: a
// multichecker enforcing the simulation's virtual-time and
// reproducibility invariants as compile-time rules.
//
// Usage:
//
//	sledlint [packages...]
//
// With no packages it checks ./... . Test files are always loaded; the
// rule that holds in tests too (wallclock) reports there. Exit status is
// 0 when the tree is clean, 1 when any rule fired, 2 on load or usage
// errors. Output is one finding per line in
// file:line:col: message (analyzer) form. No comment mutes a finding.
//
// Rules:
//
//	wallclock  no time.Now/Sleep/timers outside cmd/
//	mapiter    no map-iteration order reaching output
//	simtime    no raw integer literals as time.Duration
package main

import (
	"flag"
	"fmt"
	"os"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/mapiter"
	"sleds/internal/lint/simtime"
	"sleds/internal/lint/wallclock"
)

// Analyzers is the suite, in reporting-name order.
var Analyzers = []*analysis.Analyzer{
	mapiter.Analyzer,
	simtime.Analyzer,
	wallclock.Analyzer,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sledlint [packages...]\n\nrules:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(driver.Run(Analyzers, patterns, os.Stdout, driver.Options{}))
}
