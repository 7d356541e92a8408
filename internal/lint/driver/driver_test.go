package driver_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/simtime"
	"sleds/internal/lint/wallclock"
)

// The driver's testdata packages are addressed by explicit relative
// path (wildcards skip testdata, explicit arguments do not), so the
// real sledlint loader and exit-code paths are exercised end to end.

func TestCleanTreeExitsZero(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{simtime.Analyzer, wallclock.Analyzer},
		[]string{"./testdata/src/clean"}, &out, driver.Options{})
	if code != driver.ExitClean {
		t.Fatalf("exit = %d, want %d; output:\n%s", code, driver.ExitClean, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run must print nothing, got %q", out.String())
	}
}

// TestFindingsExitOneAndTextFormat pins the report: one line per
// finding, `file:line:col: message (analyzer)` with the file relative to
// the working directory, sorted by position, and nothing else.
func TestFindingsExitOneAndTextFormat(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{simtime.Analyzer, wallclock.Analyzer},
		[]string{"./testdata/src/dirty"}, &out, driver.Options{})
	if code != driver.ExitFindings {
		t.Fatalf("exit = %d, want %d; output:\n%s", code, driver.ExitFindings, out.String())
	}
	// time.Now on line 7 precedes the simtime literal on line 8 and the
	// time.Since on line 9.
	want := []string{
		`^testdata/src/dirty/dirty\.go:7:11: time\.Now .+ \(wallclock\)$`,
		`^testdata/src/dirty/dirty\.go:8:28: time\.Duration\(500\) .+ \(simtime\)$`,
		`^testdata/src/dirty/dirty\.go:9:16: time\.Since .+ \(wallclock\)$`,
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("got %d report lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, re := range want {
		if !regexp.MustCompile(re).MatchString(lines[i]) {
			t.Errorf("line %d = %q, want match for %s", i, lines[i], re)
		}
	}
}

// TestTestsMode: test files are always loaded, and Analyzer.Tests picks
// the rules that report there — wallclock's findings in testy_test.go
// are kept, simtime's is not.
func TestTestsMode(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{simtime.Analyzer, wallclock.Analyzer},
		[]string{"./testdata/src/testy"}, &out, driver.Options{})
	if code != driver.ExitFindings {
		t.Fatalf("the test-file violation was missed: exit %d\n%s", code, out.String())
	}
	want := regexp.MustCompile(`^testdata/src/testy/testy_test\.go:12:11: time\.Now .+ \(wallclock\)\n` +
		`testdata/src/testy/testy_test\.go:14:23: time\.Since .+ \(wallclock\)\n$`)
	if !want.MatchString(out.String()) {
		t.Fatalf("want exactly the time.Now and time.Since findings, got:\n%s", out.String())
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{wallclock.Analyzer},
		[]string{"./does-not-exist"}, &out, driver.Options{})
	if code != driver.ExitError {
		t.Fatalf("exit = %d, want %d", code, driver.ExitError)
	}
}
