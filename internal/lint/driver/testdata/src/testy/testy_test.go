package testy

import (
	"testing"
	"time"
)

// TestAnswer reads the host clock — a test-helper violation wallclock,
// which opts into test files, reports — and converts a raw literal to a
// Duration, which simtime, scoped to simulator code, does not.
func TestAnswer(t *testing.T) {
	start := time.Now()
	_ = time.Duration(500)
	if Answer() != 42 || time.Since(start) < 0 {
		t.Fatal("wrong answer")
	}
}
