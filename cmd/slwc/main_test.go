package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun runs slwc in-process at small sizes. A row that expects no stderr
// must print exactly testdata/<name>.out; any other prints nothing on
// stdout, and its stderr holds the row's message.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name, args string
		code       int
		stderr     string
	}{
		{"cdrom", "-fs cdrom -size 4 -cache 2", 0, ""},
		{"nfs8", "-fs nfs -size 8", 0, ""},
		{"nosleds", "-size 3 -cache 1 -sleds=false -seed 9", 0, ""},
		{"help", "-h", 0, "Usage of slwc"},
		{"badflag", "-bogus", 2, "flag provided but not defined"},
		{"badfs", "-fs floppy", 2, `slwc: unknown file system "floppy"`},
		{"cache0", "-cache 0", 2, "slwc: -cache 0: must be positive"},
		{"negsize", "-size -1", 1, "slwc: sleds: negative file size"},
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

// TestNFS8IsFig7: the nfs8 row's times are fig7's 8 MB row in the
// paper-scale golden, at the three decimals slwc prints.
func TestNFS8IsFig7(t *testing.T) {
	golden, err := os.ReadFile("../../experiments_paper_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, fig7, _ := strings.Cut(string(golden), "\n== fig7:")
	_, row, _ := strings.Cut(fig7, "\n8 ")
	row, _, _ = strings.Cut(row, "\n")
	// The row is "with SLEDs, without SLEDs", each mean followed by "± ci"
	// where its runs differ.
	means := strings.Fields(regexp.MustCompile(`± +\S+`).ReplaceAllString(row, ""))
	out, err := os.ReadFile("testdata/nfs8.out")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(out), "\n")
	if len(means) != 2 || len(lines) < 4 {
		t.Fatalf("fig7 8 MB means %q, testdata/nfs8.out lines %q", means, lines)
	}
	for i, line := range []string{lines[3], lines[2]} { // with, without
		secs, err := strconv.ParseFloat(means[i], 64)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%8.3fs elapsed", secs); !strings.Contains(line, want) {
			t.Errorf("%q does not hold fig7's %s s as %q", line, means[i], want)
		}
	}
}
