// Command sledlint is the repository's determinism linter: a
// multichecker enforcing the simulation's virtual-time,
// reproducibility, error-path, and zero-allocation invariants as
// compile-time rules.
//
// Usage:
//
//	sledlint [-tests] [-debt] [packages...]
//
// With no packages it checks ./... . Exit status is 0 when the tree
// is clean, 1 when any rule fired, 2 on load or usage errors. Output is
// one finding per line in file:line:col: message (analyzer) form.
//
// -tests widens the load to _test.go files for the analyzers that opt
// in (wallclock, rngsource, seedflow) — test helpers seed RNGs and
// read clocks too. -debt prints every //sledlint:allow directive with
// its reason and exits clean; the directive is the only way to accept a
// finding.
//
// Syntactic rules (each honors //sledlint:allow <rule> -- <reason>):
//
//	wallclock  no time.Now/Sleep/timers outside cmd/
//	rngsource  no global math/rand, no literal seeds
//	mapiter    no map-iteration order reaching output
//	panicpath  no panic in device/fault-path packages
//	simtime    no raw integer literals as time.Duration
//
// Dataflow rules (inter-procedural, driven by cross-package facts):
//
//	seedflow   RNG seeds must derive from experiments.PointSeed, a
//	           constant, or a //sledlint:seed source
//	errflow    errors from ReadErr/WriteErr and transitively fallible
//	           helpers must be returned, checked, or discarded with a
//	           reasoned directive
//	hotalloc   //sledlint:hotpath functions and their callees must be
//	           free of allocation sites
package main

import (
	"flag"
	"fmt"
	"os"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/errflow"
	"sleds/internal/lint/hotalloc"
	"sleds/internal/lint/mapiter"
	"sleds/internal/lint/panicpath"
	"sleds/internal/lint/rngsource"
	"sleds/internal/lint/seedflow"
	"sleds/internal/lint/simtime"
	"sleds/internal/lint/wallclock"
)

// Analyzers is the suite, in reporting-name order.
var Analyzers = []*analysis.Analyzer{
	errflow.Analyzer,
	hotalloc.Analyzer,
	mapiter.Analyzer,
	panicpath.Analyzer,
	rngsource.Analyzer,
	seedflow.Analyzer,
	simtime.Analyzer,
	wallclock.Analyzer,
}

func main() {
	tests := flag.Bool("tests", false, "also check _test.go files (analyzers opt in)")
	debt := flag.Bool("debt", false, "report every //sledlint:allow directive and exit clean")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sledlint [-tests] [-debt] [packages...]\n\nrules:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(driver.Run(Analyzers, patterns, os.Stdout, driver.Options{Tests: *tests, Debt: *debt}))
}
