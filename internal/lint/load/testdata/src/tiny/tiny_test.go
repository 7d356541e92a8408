package tiny

import "testing"

// helperAnswer is a test-only symbol: it exists in the augmented
// build Packages loads and nowhere else.
func helperAnswer() int { return Answer() }

func TestAnswer(t *testing.T) {
	if helperAnswer() != 42 {
		t.Fatal("wrong answer")
	}
}
