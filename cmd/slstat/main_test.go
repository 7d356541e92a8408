package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs slstat in-process at small sizes. A row that expects no stderr
// must print exactly testdata/<name>.out; any other prints nothing on
// stdout, and its stderr holds the row's message.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name, args string
		code       int
		stderr     string
	}{
		{"egmc", "-size 72 -warm 0.5", 0, ""},
		{"nfs", "-fs nfs -size 4 -warm 0.25", 0, ""},
		{"tape", "-fs tape -size 4 -warm 0", 0, ""},
		{"warm1.5", "-warm 1.5", 2, "slstat: -warm 1.5: must be in [0, 1]"},
		{"warm-0.1", "-warm -0.1", 2, "slstat: -warm -0.1: must be in [0, 1]"},
		{"badfs", "-fs floppy", 2, `slstat: unknown file system "floppy"`},
		{"negsize", "-size -1", 1, "slstat: sleds: negative file size"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(strings.Fields(c.args), &stdout, &stderr)
			if code != c.code || !strings.Contains(stderr.String(), c.stderr) || (c.stderr == "") != (stderr.Len() == 0) {
				t.Fatalf("exit %d, stderr %q; want exit %d, stderr %q", code, stderr.String(), c.code, c.stderr)
			}
			want := ""
			if c.stderr == "" {
				b, err := os.ReadFile(filepath.Join("testdata", c.name+".out"))
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

// TestEgmcIsTheGolden: the egmc row prints, byte for byte, the panel the
// egmc experiment committed to the paper-scale golden.
func TestEgmcIsTheGolden(t *testing.T) {
	golden, err := os.ReadFile("../../experiments_paper_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, panel, ok := bytes.Cut(golden, []byte("\n== egmc:"))
	_, panel, _ = bytes.Cut(panel, []byte("\n"))
	panel, _, _ = bytes.Cut(panel, []byte("\n\n"))
	want, err := os.ReadFile("testdata/egmc.out")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || string(panel)+"\n" != string(want) {
		t.Errorf("golden egmc panel:\n%s\ntestdata/egmc.out:\n%s", panel, want)
	}
}
