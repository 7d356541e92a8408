package driver_test

import (
	"bytes"
	"regexp"
	"testing"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/simtime"
	"sleds/internal/lint/wallclock"
)

// TestDebtReport pins the directive inventory: the suppressed package
// lints clean, and -debt lists the directive that made it so — one
// `file:line: allow rules -- reason` line each, then the count — and
// exits clean whatever it found.
func TestDebtReport(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{wallclock.Analyzer},
		[]string{"./testdata/src/debt"}, &out, driver.Options{})
	if code != driver.ExitClean || out.Len() != 0 {
		t.Fatalf("suppressed package not clean: exit %d\n%s", code, out.String())
	}

	out.Reset()
	code = driver.Run(
		[]*analysis.Analyzer{wallclock.Analyzer},
		[]string{"./testdata/src/debt"}, &out, driver.Options{Debt: true})
	want := "testdata/src/debt/debt.go:10: allow wallclock -- fixture: the debt report test needs one reasoned entry\n" +
		"sledlint: 1 allow directive(s)\n"
	if code != driver.ExitClean || out.String() != want {
		t.Fatalf("-debt: exit %d, output\n%s\nwant\n%s", code, out.String(), want)
	}

	// A directive in a _test.go file is honoured by the lint run, so the
	// inventory lists it too.
	out.Reset()
	code = driver.Run(
		[]*analysis.Analyzer{wallclock.Analyzer},
		[]string{"./testdata/src/testy"}, &out, driver.Options{Debt: true})
	want = "testdata/src/testy/testy_test.go:14: allow wallclock -- fixture: a directive in a test file is inventory too\n" +
		"sledlint: 1 allow directive(s)\n"
	if code != driver.ExitClean || out.String() != want {
		t.Fatalf("-debt on test files: exit %d, output\n%s\nwant\n%s", code, out.String(), want)
	}

	// A package with findings and no directives: -debt reports the
	// inventory, not the findings.
	out.Reset()
	code = driver.Run(
		[]*analysis.Analyzer{wallclock.Analyzer},
		[]string{"./testdata/src/dirty"}, &out, driver.Options{Debt: true})
	if code != driver.ExitClean || out.String() != "sledlint: 0 allow directive(s)\n" {
		t.Fatalf("-debt on a package with findings: exit %d, %q", code, out.String())
	}
}

// TestTestsMode: test files are always loaded, and Analyzer.Tests picks
// the rules that report there — wallclock's finding in testy_test.go is
// kept, simtime's is not.
func TestTestsMode(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{simtime.Analyzer, wallclock.Analyzer},
		[]string{"./testdata/src/testy"}, &out, driver.Options{})
	if code != driver.ExitFindings {
		t.Fatalf("the test-file violation was missed: exit %d\n%s", code, out.String())
	}
	want := regexp.MustCompile(`^testdata/src/testy/testy_test\.go:12:11: time\.Now .+ \(wallclock\)\n$`)
	if !want.MatchString(out.String()) {
		t.Fatalf("want exactly the time.Now finding, got:\n%s", out.String())
	}
}
