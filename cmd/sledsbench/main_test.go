package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sleds/internal/experiments"
	"sleds/internal/faults"
	"sleds/internal/trace"
)

// bench runs sledsbench in-process and returns its exit code and streams.
func bench(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestListIsTheRegistry: -list prints every id the registry accepts,
// sorted, then the prefixed -faults profiles and -classes classes.
func TestListIsTheRegistry(t *testing.T) {
	code, stdout, stderr := bench("-list")
	if code != 0 || stderr != "" {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr)
	}
	want := experiments.IDs()
	slices.Sort(want)
	for _, p := range faults.Profiles() {
		want = append(want, "faults:"+p)
	}
	for _, c := range trace.Classes() {
		want = append(want, "class:"+c)
	}
	if got := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n"); !slices.Equal(got, want) {
		t.Errorf("-list printed\n%v\nwant\n%v", got, want)
	}
}

func TestUnknownIDExits2NamingTheValidIDs(t *testing.T) {
	code, stdout, stderr := bench("-scale", "quick", "-exp", "f7,bogus")
	if code != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 2 and nothing regenerated", code, stdout)
	}
	if !strings.Contains(stderr, `unknown experiment id "bogus"`) {
		t.Errorf("stderr does not name the bad id: %q", stderr)
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(stderr, id) {
			t.Errorf("stderr does not list valid id %q: %q", id, stderr)
		}
	}
	if code, _, stderr := bench("-exp", " , "); code != 2 || !strings.Contains(stderr, "no experiments selected") {
		t.Errorf("empty selection: exit %d, stderr %q", code, stderr)
	}
}

// TestBadFlagsExit2: a flag out of range is a usage error, reported before
// the first stdout byte.
func TestBadFlagsExit2(t *testing.T) {
	for _, c := range []struct{ args, stderr string }{
		{"-scale huge", `sledsbench: unknown scale "huge"`},
		{"-runs -1", "sledsbench: -runs -1: must not be negative"},
		{"-fleet -3", "sledsbench: -fleet -3: must not be negative"},
		{"-workers -2", "sledsbench: -workers -2: must not be negative"},
	} {
		code, stdout, stderr := bench(append(strings.Fields(c.args), "-exp", "t2")...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.stderr) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q", c.args, code, stdout, stderr, c.stderr)
		}
	}
}

// TestSharedSweepSubsetAndCSV drives the one sweep two ids share: -exp f8
// prints fig8 alone, and -exp f7,f8 -csv writes both figures from a single
// run of the sweep (one host-time note on stderr).
func TestSharedSweepSubsetAndCSV(t *testing.T) {
	code, stdout, stderr := bench("-scale", "quick", "-runs", "1", "-exp", "f8")
	if code != 0 {
		t.Fatalf("-exp f8: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "== fig8:") || strings.Contains(stdout, "== fig7:") {
		t.Errorf("-exp f8 must print fig8 and not fig7:\n%s", stdout)
	}

	dir := filepath.Join(t.TempDir(), "csv") // -csv creates it
	code, stdout, stderr = bench("-scale", "quick", "-runs", "1", "-exp", "f7,f8", "-csv", dir)
	if code != 0 {
		t.Fatalf("-exp f7,f8 -csv: exit %d, stderr %q", code, stderr)
	}
	if i7, i8 := strings.Index(stdout, "== fig7:"), strings.Index(stdout, "== fig8:"); i7 < 0 || i8 < i7 {
		t.Errorf("-exp f7,f8 must print fig7 then fig8:\n%s", stdout)
	}
	if n := strings.Count(stderr, "(f7+f8 regenerated in "); n != 1 || strings.Count(stderr, "host time") != 1 {
		t.Errorf("want exactly one sweep, noted as f7+f8; stderr %q", stderr)
	}
	for _, name := range []string{"fig7.csv", "fig8.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "size MB,") {
			t.Errorf("%s does not start with the figure's CSV header: %.40q", name, data)
		}
	}
}

// TestCSVCoversEveryFigure: -csv writes a file for every artifact that
// carries a Figure — the report-style experiments included — and none for
// the ones that do not (egmc); parentheses are stripped from file names.
func TestCSVCoversEveryFigure(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := bench("-scale", "quick", "-runs", "1", "-exp", "efind,egmc,ehsm,eremote,f15", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, f.Name())
	}
	if want := []string{"efind.csv", "ehsm.csv", "eremote.csv", "fig15x4.csv"}; !slices.Equal(got, want) {
		t.Errorf("-csv wrote %v, want %v", got, want)
	}
}
