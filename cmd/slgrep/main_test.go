package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs slgrep in-process at small sizes. A row that expects no stderr
// must print exactly testdata/<name>.out; any other prints nothing on
// stdout, and its stderr holds the row's message.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name, args string
		code       int
		stderr     string
	}{
		{"q", "-size 4 -cache 2 -q -seed 7", 0, ""},
		{"cdrom-n", "-fs cdrom -size 4 -cache 2 -n -at 0.25", 0, ""},
		{"tape-q", "-fs tape -size 2 -cache 1 -q -at 0.9", 0, ""},
		{"at1.5", "-at 1.5", 2, "slgrep: -at 1.5: must be in [0, 1]"},
		{"at-0.5", "-at -0.5", 2, "slgrep: -at -0.5: must be in [0, 1]"},
		{"atNaN", "-at NaN", 2, "slgrep: -at NaN: must be in [0, 1]"},
		{"cache0", "-cache 0", 2, "slgrep: -cache 0: must be positive"},
		{"size0", "-size 0", 1, "cannot hold a 64-byte match line"},
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
