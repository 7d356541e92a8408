package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs fimhisto in-process at small sizes. A row that expects no stderr
// must print exactly testdata/<name>.out; any other prints nothing on
// stdout, and its stderr holds the row's message.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name, args string
		code       int
		stderr     string
	}{
		{"small", "-width 256 -height 1024 -cache 0.25 -bins 16", 0, ""},
		{"cache0", "-cache 0", 2, "fimhisto: -cache 0: must be positive"},
		{"width0", "-width 0", 1, "fimhisto: fits: bad dimensions"},
		{"bins0", "-bins 0", 2, "fimhisto: fitsapp: bad bin count 0"},
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
