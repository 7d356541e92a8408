package seedflow

import (
	"testing"

	"sleds/internal/lint/linttest"
)

// TestSeedflow holds the seed-derivation rule; the golden of the
// global-source rule is internal/lint/rngsource's.
func TestSeedflow(t *testing.T) {
	linttest.Run(t, Analyzer, "testdata/src/seedflow",
		"sleds/internal/lint/seedflow/testdata/src/seedflow")
}
