package fake

import (
	"time"

	"sleds/internal/simclock"
)

func take(d time.Duration) {}

func takeSim(d simclock.Duration) {}

func variadic(ds ...time.Duration) {}

type policy struct {
	Backoff time.Duration
	Tries   int
}

func bad() {
	take(5)       // want `^raw integer 5 passed as time\.Duration \(argument 1 of take\): it is 5ns; write 5\*simclock\.Nanosecond$`
	takeSim(1500) // want `^raw integer 1500 passed as time\.Duration \(argument 1 of takeSim\): it is 1\.5µs; write 1500\*simclock\.Nanosecond$`
	take(-5)      // want `^raw integer -5 passed as time\.Duration \(argument 1 of take\): it is -5ns; write -5\*simclock\.Nanosecond$`
	// The right value, spelled raw: no run can tell it from 50*simclock.Microsecond.
	takeSim(50000)                          // want `^raw integer 50000 passed as time\.Duration \(argument 1 of takeSim\): it is 50µs; write 50\*simclock\.Microsecond$`
	variadic(10, 20)                        // want `raw integer 10 passed as time\.Duration \(argument 1 of variadic\): it is 10ns` `raw integer 20 passed as time\.Duration \(argument 2 of variadic\): it is 20ns`
	_ = time.Duration(250)                  // want `^time\.Duration\(250\) converts a raw integer: it is 250ns; write 250\*simclock\.Nanosecond$`
	_ = time.Duration(-3000000)             // want `^time\.Duration\(-3000000\) converts a raw integer: it is -3ms; write -3\*simclock\.Millisecond$`
	_ = policy{Backoff: 10000000, Tries: 3} // want `^raw integer 10000000 assigned to time\.Duration field Backoff: it is 10ms; write 10\*simclock\.Millisecond$`
	take(2000000000)                        // want `it is 2s; write 2\*simclock\.Second$`
}

func ok() {
	take(0) // zero is the same instant in every unit
	take(5 * time.Millisecond)
	takeSim(2 * simclock.Second)
	variadic(time.Second, 2*time.Second)
	_ = policy{Backoff: 10 * time.Millisecond, Tries: 3}
	const warmup = 5 * simclock.Millisecond
	takeSim(warmup)
	clockArith := simclock.Duration(float64(simclock.Second) * 0.25)
	take(clockArith)
}

// An allow comment is an ordinary comment: it mutes nothing.
func allowMutesNothing() {
	//sledlint:allow simtime -- literal is a calibrated nanosecond table entry
	take(1234) // want `^raw integer 1234 passed as time\.Duration \(argument 1 of take\): it is 1\.234µs; write 1234\*simclock\.Nanosecond$`
}
