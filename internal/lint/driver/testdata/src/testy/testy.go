// Package testy is clean on its build files; the violations live in
// the _test.go file next door.
package testy

// Answer is deterministic; nothing in this file should fire.
func Answer() int { return 42 }
