package testy

import (
	"math/rand"
	"testing"
	"time"
)

// TestAnswer seeds the global source — a test-helper violation seedflow,
// which opts into test files, reports — and converts a raw literal to a
// Duration, which simtime, scoped to simulator code, does not.
func TestAnswer(t *testing.T) {
	rand.Seed(7)
	_ = time.Duration(500)
	//sledlint:allow seedflow -- fixture: a directive in a test file is inventory too
	if Answer()+rand.Intn(1) != 42 {
		t.Fatal("wrong answer")
	}
}
