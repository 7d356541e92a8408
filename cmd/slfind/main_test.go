package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun runs slfind in-process at small sizes. A row that expects no stderr
// must print exactly testdata/<name>.out; any other prints nothing on
// stdout, and its stderr holds the row's message.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name, args string
		code       int
		stderr     string
	}{
		{"all", "", 0, ""},
		{"latency+1", "-latency +1", 0, ""},
		{"latency-m50", "-latency -m50", 0, ""},
		{"exec", "-name *.c -exec-grep xyzzy", 0, ""},
		{"percent", "-name %d", 0, ""},
		{"badlatency", "-latency 5x", 2, "slfind: findapp: bad latency predicate"},
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
