package tiny_test

import (
	"testing"

	"sleds/internal/lint/load/testdata/src/tiny"
)

// The external test package loads as its own "<path>_test" package,
// importing the pristine build.
func TestAnswerExternal(t *testing.T) {
	if tiny.Answer() != 42 {
		t.Fatal("wrong answer")
	}
}
