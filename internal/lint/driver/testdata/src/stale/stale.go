// Package stale holds what a deleted rule leaves behind: an allow for
// an analyzer the suite no longer runs, and a marker no rule reads.
package stale

// Scale is clean code under both leftovers.
//
//sledlint:pure
func Scale(x int) int {
	//sledlint:allow panicpath -- a rule that is gone mutes nothing
	return 2 * x
}
