package fake

import "time"

func bad(t0 time.Time) {
	_ = time.Now()                 // want `time\.Now reads the host clock`
	time.Sleep(time.Millisecond)   // want `time\.Sleep reads the host clock`
	<-time.After(time.Second)      // want `time\.After reads the host clock`
	_ = time.Since(t0)             // want `time\.Since reads the host clock`
	_ = time.NewTimer(time.Second) // want `time\.NewTimer reads the host clock`
	_ = time.Until(t0)             // want `time\.Until reads the host clock`
}

func ok() time.Duration {
	d := 5 * time.Millisecond
	return d + time.Duration(float64(time.Second)*0.5)
}

// An allow comment is an ordinary comment: it mutes nothing.
func allowMutesNothing() {
	//sledlint:allow wallclock -- measuring the harness itself, not the simulation
	_ = time.Now() // want `time\.Now reads the host clock`
}
