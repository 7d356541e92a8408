// Package debt holds one deliberately suppressed violation so the
// driver tests can pin the -debt report shape.
package debt

import "math/rand"

// Sample draws from the global source under a reasoned directive: the
// finding is muted, the directive is inventory.
func Sample() int64 {
	//sledlint:allow seedflow -- fixture: the debt report test needs one reasoned entry
	return rand.Int63()
}
