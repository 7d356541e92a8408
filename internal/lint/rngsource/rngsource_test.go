// Package rngsource_test holds the golden of seedflow's global-source
// rule: a draw from the process-global math/rand source is a finding in
// any package of the module, since that source has no seed to trace. The
// rule was an analyzer of its own, rngsource, before it folded into
// seedflow; the fixture keeps its cases, and its literal-seed case is now
// a constant derivation root, not a finding.
package rngsource_test

import (
	"testing"

	"sleds/internal/lint/linttest"
	"sleds/internal/lint/seedflow"
)

func TestRngsource(t *testing.T) {
	linttest.Run(t, seedflow.Analyzer, "testdata/src/rngsource", "sleds/internal/experiments")
}
