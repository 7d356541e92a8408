package dirty

import "time"

// Two deliberate violations, one per analyzer the driver test runs.
func Sample(d time.Duration) time.Duration {
	start := time.Now()
	wait := d + time.Duration(500)
	return wait + time.Since(start)
}
