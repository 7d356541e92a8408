// Package debt holds one deliberately suppressed violation so the
// driver tests can pin the -debt report shape.
package debt

import "time"

// Stamp reads the host clock under a reasoned directive: the finding is
// muted, the directive is inventory.
func Stamp() time.Time {
	//sledlint:allow wallclock -- fixture: the debt report test needs one reasoned entry
	return time.Now()
}
