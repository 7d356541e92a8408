package driver_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"sleds/internal/lint/analysis"
	"sleds/internal/lint/driver"
	"sleds/internal/lint/seedflow"
	"sleds/internal/lint/simtime"
)

// The driver's testdata packages are addressed by explicit relative
// path (wildcards skip testdata, explicit arguments do not), so the
// real sledlint loader and exit-code paths are exercised end to end.

func TestCleanTreeExitsZero(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{seedflow.Analyzer, simtime.Analyzer},
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
		[]*analysis.Analyzer{seedflow.Analyzer, simtime.Analyzer},
		[]string{"./testdata/src/dirty"}, &out, driver.Options{})
	if code != driver.ExitFindings {
		t.Fatalf("exit = %d, want %d; output:\n%s", code, driver.ExitFindings, out.String())
	}
	// rand.Seed on line 10 precedes the simtime literal on line 11 and
	// the rand.Int63 draw on line 12.
	want := []string{
		`^testdata/src/dirty/dirty\.go:10:2: rand\.Seed .+ \(seedflow\)$`,
		`^testdata/src/dirty/dirty\.go:11:28: time\.Duration\(500\) .+ \(simtime\)$`,
		`^testdata/src/dirty/dirty\.go:12:30: rand\.Int63 .+ \(seedflow\)$`,
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

func TestBadPatternExitsTwo(t *testing.T) {
	var out bytes.Buffer
	code := driver.Run(
		[]*analysis.Analyzer{seedflow.Analyzer},
		[]string{"./does-not-exist"}, &out, driver.Options{})
	if code != driver.ExitError {
		t.Fatalf("exit = %d, want %d", code, driver.ExitError)
	}
}
