package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sleds/internal/experiments"
)

// goldenFile is the committed quick-scale regeneration at the default
// seed; the figs and lhea renders must appear in it verbatim.
const goldenFile = "experiments_quick_scale.txt"

// repoRoot walks up from the working directory to the directory that
// holds the root go.mod and the golden file.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenFile)); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory above the working directory holds go.mod and " + goldenFile)
		}
		dir = parent
	}
}

// benchDir is the benchmark's own directory under the repository root.
func benchDir(root string) string { return filepath.Join(root, "cmd", "sledsperf") }

// loadExpectedDigests reads cmd/sledsperf/expected_digests.json: the
// seed commit's sim_digest per workload, recorded at the default seed.
func loadExpectedDigests(root string) (map[string]string, error) {
	var e struct {
		Seed    int64             `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	data, err := os.ReadFile(filepath.Join(benchDir(root), "expected_digests.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected_digests.json: %w", err)
	}
	if e.Seed != defaultSeed {
		return nil, fmt.Errorf("expected_digests.json was recorded at seed %d, not the default %d", e.Seed, defaultSeed)
	}
	return e.Digests, nil
}

// checkFigure is the shape check: every series present and of one
// length, every value finite and non-negative.
func checkFigure(f experiments.Figure) error {
	if len(f.Series) == 0 {
		return fmt.Errorf("%s: no series", f.ID)
	}
	n := len(f.Series[0].Points)
	if n == 0 {
		return fmt.Errorf("%s: series %q is empty", f.ID, f.Series[0].Name)
	}
	for _, s := range f.Series {
		if len(s.Points) != n {
			return fmt.Errorf("%s: series %q has %d points, %q has %d", f.ID, s.Name, len(s.Points), f.Series[0].Name, n)
		}
		for _, p := range s.Points {
			for _, v := range []float64{p.X, p.Mean, p.CI90} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("%s: series %q holds %v at x=%v", f.ID, s.Name, v, p.X)
				}
			}
		}
	}
	return nil
}

// checkText applies the same value rule to a rendering whose cells are
// not exported (the etrace and efleet reports): every token that reads
// as a number is finite and non-negative.
func checkText(text string) error {
	for _, tok := range strings.Fields(text) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("rendered value %q is not a finite non-negative number", tok)
		}
	}
	return nil
}

// verify checks one call's rendering (figures were shape-checked before
// they were rendered). golden is the golden file's content, or "" when
// the golden check does not apply (another seed, or -smoke).
func verify(c call, out output, golden string) error {
	if out.text == "" {
		return errors.New("rendered nothing")
	}
	if err := checkText(out.text); err != nil {
		return err
	}
	if c.golden && golden != "" && !strings.Contains(golden, out.text) {
		return fmt.Errorf("render differs from %s", goldenFile)
	}
	return nil
}
