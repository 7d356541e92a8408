// Command sledlint is the repository's determinism linter: a
// multichecker enforcing the simulation's virtual-time,
// reproducibility and error-path invariants as compile-time rules.
//
// Usage:
//
//	sledlint [-debt] [packages...]
//
// With no packages it checks ./... . Test files are always loaded; the
// rules that hold in tests too (wallclock, seedflow) report there. Exit
// status is 0 when the tree is clean, 1 when any rule fired, 2 on load
// or usage errors. Output is one finding per line in
// file:line:col: message (analyzer) form.
//
// -debt prints every //sledlint:allow directive with its reason and
// exits clean; the directive is the only way to accept a finding.
//
// Syntactic rules (each honors //sledlint:allow <rule> -- <reason>):
//
//	wallclock  no time.Now/Sleep/timers outside cmd/
//	mapiter    no map-iteration order reaching output
//	simtime    no raw integer literals as time.Duration
//
// Dataflow rules (inter-procedural, driven by cross-package facts):
//
//	seedflow   no global math/rand; RNG seeds must derive from
//	           experiments.PointSeed, a constant, or a //sledlint:seed
//	           source
//	errflow    errors from ReadErr/WriteErr and transitively fallible
//	           helpers must be returned, checked, or discarded with a
//	           reasoned directive
package main

import (
	"flag"
	"fmt"
	"os"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/errflow"
	"sleds/internal/lint/mapiter"
	"sleds/internal/lint/seedflow"
	"sleds/internal/lint/simtime"
	"sleds/internal/lint/wallclock"
)

// Analyzers is the suite, in reporting-name order.
var Analyzers = []*analysis.Analyzer{
	errflow.Analyzer,
	mapiter.Analyzer,
	seedflow.Analyzer,
	simtime.Analyzer,
	wallclock.Analyzer,
}

func main() {
	debt := flag.Bool("debt", false, "report every //sledlint:allow directive and exit clean")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sledlint [-debt] [packages...]\n\nrules:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(driver.Run(Analyzers, patterns, os.Stdout, driver.Options{Debt: *debt}))
}
