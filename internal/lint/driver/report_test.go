package driver_test

import (
	"bytes"
	"strings"
	"testing"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/rngsource"
)

// TestDebtReport pins the directive inventory: the suppressed package
// lints clean, and -debt lists the directive that made it so — one
// `file:line: allow rules -- reason` line each, then the count — and
// exits clean whatever it found.
func TestDebtReport(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{rngsource.Analyzer},
		[]string{"./testdata/src/debt"}, &out, driver.Options{})
	if code != driver.ExitClean || out.Len() != 0 {
		t.Fatalf("suppressed package not clean: exit %d\n%s", code, out.String())
	}

	out.Reset()
	code = driver.Run(
		[]*analysis.Analyzer{rngsource.Analyzer},
		[]string{"./testdata/src/debt"}, &out, driver.Options{Debt: true})
	want := "testdata/src/debt/debt.go:10: allow rngsource -- fixture: the debt report test needs one reasoned entry\n" +
		"sledlint: 1 allow directive(s)\n"
	if code != driver.ExitClean || out.String() != want {
		t.Fatalf("-debt: exit %d, output\n%s\nwant\n%s", code, out.String(), want)
	}

	// A package with findings and no directives: -debt reports the
	// inventory, not the findings.
	out.Reset()
	code = driver.Run(
		[]*analysis.Analyzer{rngsource.Analyzer},
		[]string{"./testdata/src/dirty"}, &out, driver.Options{Debt: true})
	if code != driver.ExitClean || out.String() != "sledlint: 0 allow directive(s)\n" {
		t.Fatalf("-debt on a package with findings: exit %d, %q", code, out.String())
	}
}

// TestTestsMode: the violation in testy_test.go is invisible by
// default and a finding under Options.Tests for analyzers that opt in.
func TestTestsMode(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{rngsource.Analyzer},
		[]string{"./testdata/src/testy"}, &out, driver.Options{})
	if code != driver.ExitClean {
		t.Fatalf("default load saw test files: exit %d\n%s", code, out.String())
	}

	out.Reset()
	code = driver.Run(
		[]*analysis.Analyzer{rngsource.Analyzer},
		[]string{"./testdata/src/testy"}, &out, driver.Options{Tests: true})
	if code != driver.ExitFindings {
		t.Fatalf("-tests missed the helper violation: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "testy_test.go") || !strings.Contains(out.String(), "(rngsource)") {
		t.Fatalf("wrong finding:\n%s", out.String())
	}
}
