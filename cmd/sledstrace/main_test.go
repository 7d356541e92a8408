package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs sledstrace in-process. A row with an out file must print
// exactly testdata/<out> and nothing on stderr; any other row prints
// nothing on stdout, and its stderr holds the row's message.
func TestRun(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.sledtrace")
	if err := os.WriteFile(bad, []byte("sledtrace/1\nfiles x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const mixed = "testdata/mixed7.sledtrace"
	for _, c := range []struct {
		name, args string
		code       int
		out        string // testdata file stdout must equal
		stderr     string
	}{
		{"gen", "gen -class mixed -seed 7", 0, "mixed7.sledtrace", ""},
		{"gen-again", "gen -class mixed -seed 7", 0, "mixed7.sledtrace", ""},
		{"validate", "validate " + mixed, 0, "validate.out", ""},
		{"inspect", "inspect " + mixed, 0, "inspect.out", ""},
		{"quiet", "validate -q " + mixed, 0, "", ""},
		{"invalid", "validate " + bad, 1, "", "sledstrace validate: invalid: "},
		{"invalid-quiet", "validate -q " + bad, 1, "", ""},
		{"badflag", "gen -bogus", 2, "", "flag provided but not defined"},
		{"badclass", "gen -class nope", 2, "", `sledstrace gen: trace: unknown workload class "nope"`},
		{"positional", "gen extra", 2, "", "gen takes no positional arguments"},
		{"twofiles", "inspect " + mixed + " " + mixed, 2, "", "want one trace file"},
		{"nofile", "inspect testdata/none.sledtrace", 1, "", "no such file"},
		{"nocommand", "", 2, "", "usage: sledstrace"},
		{"badcommand", "replay", 2, "", `sledstrace: unknown command "replay"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(strings.Fields(c.args), &stdout, &stderr)
			if code != c.code || !strings.Contains(stderr.String(), c.stderr) || (c.stderr == "") != (stderr.Len() == 0) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr %q", code, stderr.String(), c.code, c.stderr)
			}
			want := ""
			if c.out != "" {
				b, err := os.ReadFile(filepath.Join("testdata", c.out))
				if err != nil {
					t.Fatal(err)
				}
				want = string(b)
			}
			if stdout.String() != want {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), want)
			}
		})
	}
}

// TestGenToFile: -o writes the bytes gen prints, and a file that cannot
// be written is a run error.
func TestGenToFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.sledtrace")
	var stdout, stderr strings.Builder
	if code := run([]string{"gen", "-class", "mixed", "-seed", "7", "-o", path}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/mixed7.sledtrace")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("-o file differs from testdata/mixed7.sledtrace")
	}
	if code := run([]string{"gen", "-o", filepath.Join(dir, "missing", "out.sledtrace")}, &stdout, &stderr); code != 1 {
		t.Errorf("unwritable -o: exit %d, want 1", code)
	}
}
