// Package simclock provides the virtual time base for the simulated
// storage stack.
//
// Every cost in the simulator — device positioning, data transfer, modelled
// CPU work — is expressed by advancing a Clock. Virtual time makes runs
// deterministic and independent of the host machine, which is what lets the
// benchmark harness reproduce the *shape* of the paper's figures without
// the original testbed.
//
// Durations are virtual nanoseconds held in int64, the same representation
// as time.Duration, so the two interconvert freely.
package simclock

import (
	"fmt"
	"math/rand"
	"time"
)

// Duration is a span of virtual time in nanoseconds. It is a distinct type
// from time.Duration only to make signatures self-documenting; convert with
// plain conversions.
type Duration = time.Duration

// Common durations, re-exported so simulator code does not need to import
// time merely for unit constants.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Clock is a monotonically advancing virtual clock.
//
// Clock is not safe for concurrent use; the simulator is single-threaded by
// design (a discrete-event model with one logical CPU, like the paper's
// single-user test machine).
type Clock struct {
	now Duration
}

// New returns a clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Duration { return c.now }

// Advance moves the clock forward by d. Negative advances are a programming
// error and panic: virtual time never runs backwards.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative advance %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock to t if t is in the future; it is a no-op when
// t is in the past. It reports whether the clock moved. This is used when a
// device's mechanism (e.g. a rotating platter) is already positioned past
// the requested time.
func (c *Clock) AdvanceTo(t Duration) bool {
	if t <= c.now {
		return false
	}
	c.now = t
	return true
}

// TransferTime returns the virtual time needed to move n bytes at rate
// bytesPerSec. A non-positive rate panics: every modelled channel has a
// finite positive bandwidth.
func TransferTime(n int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("simclock: non-positive bandwidth %v", bytesPerSec))
	}
	if n <= 0 {
		return 0
	}
	sec := float64(n) / bytesPerSec
	return Duration(sec * float64(Second))
}

// Jitter produces small bounded random perturbations of durations. The
// paper's measurements include "background system activity and the somewhat
// random nature of page replacement"; Jitter is the simulator's stand-in,
// seeded so that experiment runs are reproducible.
type Jitter struct {
	rng  *rand.Rand
	frac float64
}

// NewJitter returns a jitter source that perturbs durations by a factor
// drawn uniformly from [1-frac, 1+frac]. frac must lie in [0, 1).
func NewJitter(seed int64, frac float64) *Jitter {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("simclock: jitter fraction %v out of [0,1)", frac))
	}
	return &Jitter{rng: rand.New(rand.NewSource(seed)), frac: frac}
}

// Perturb returns d scaled by a random factor in [1-frac, 1+frac].
func (j *Jitter) Perturb(d Duration) Duration {
	if j == nil || j.frac == 0 || d == 0 {
		return d
	}
	f := 1 + j.frac*(2*j.rng.Float64()-1)
	return Duration(float64(d) * f)
}
