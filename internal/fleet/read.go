package fleet

import (
	"errors"
	"fmt"

	"sleds/internal/device"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
)

// Policy selects how the client routes a read across the fleet.
type Policy int

const (
	// PolicyRR is blind round-robin: no estimates, no health — the
	// baseline the experiments compare against. Failover still applies
	// (the next replica in rotation is tried on a fault).
	PolicyRR Policy = iota
	// PolicySLED routes by SLED estimate (load, health, server-cache
	// aware) with demotion and probe-back.
	PolicySLED
	// PolicySLEDHedge is PolicySLED plus a hedged read against the
	// runner-up replica, armed at the estimate-derived deadline.
	PolicySLEDHedge
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyRR:
		return "rr"
	case PolicySLED:
		return "sled"
	case PolicySLEDHedge:
		return "hedge"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ObserveLateFaults wires the engine's orphan observer to the fleet's
// health table: a hedge loser that faults after losing the race never
// surfaces its error to any stream, but the failure is real — without
// this a degraded replica whose faults are always masked by winning
// secondaries would never be demoted. Call once per engine, before Run.
func (f *Fleet) ObserveLateFaults(e *iosched.Engine) {
	e.SetOrphanObserver(func(dev device.ID, err error, at simclock.Duration) {
		var fault *device.Fault
		if f.tab != nil && errors.As(err, &fault) {
			f.tab.ObserveFault(fault.Dev, fault.Extra, at)
		}
	})
}

// Failover's budget for one logical read: each replica may be tried
// retryAttempts times, and the read waits retryBackoff before its first
// retry, doubled before each one after and capped at retryBackoffCap.
const (
	retryAttempts   = 2
	retryBackoff    = 5 * simclock.Millisecond
	retryBackoffCap = 80 * simclock.Millisecond
)

// Read is one logical read of the replicated file, driven as a
// sub-state-machine inside an iosched Program: call Step with the
// previous Result to get the next Op until it reports done, then inspect
// Err/Dev/Attempts. Failover is built in — a faulted completion feeds
// the table's health observer, burns the replica's per-read retry
// budget, backs off (doubling, capped), and reselects among replicas
// with budget remaining.
//
// A Read belongs to whoever drives it. StartRead allocates one; a stream
// that issues reads back to back keeps a single Read (a field, not a
// pointer) and hands it to BeginRead for each, which resets it in place —
// the outcome fields stay valid until then.
type Read struct {
	f      *Fleet
	policy Policy
	off, n int64

	attempts []int // per-replica attempts consumed this read
	spent    int   // replicas whose budget (retryAttempts) is used up
	backoff  simclock.Duration
	target   int  // replica index of the attempt in flight
	hedgeTo  int  // secondary's replica index, -1 when not hedged
	issued   bool // an attempt's Op is outstanding

	// Outcome, valid once Step reports done.
	Err      error
	Dev      device.ID // replica device that completed the read
	Attempts int       // attempts issued (1 = first try succeeded)
	Hedged   bool      // any attempt's hedge deadline fired
	Failed   int       // faulted completions absorbed by failover
}

// StartRead begins one logical read of [off, off+n) under the policy.
// The read issues its first Op at the first Step call.
func (f *Fleet) StartRead(policy Policy, off, n int64) *Read {
	r := &Read{}
	f.BeginRead(r, policy, off, n)
	return r
}

// BeginRead is StartRead into storage the caller owns: r — the zero Read,
// or one whose previous read is done with — becomes a fresh read of
// [off, off+n), keeping only its per-replica attempt buffer, so a reused
// Read costs no allocation.
func (f *Fleet) BeginRead(r *Read, policy Policy, off, n int64) {
	attempts := r.attempts[:0]
	if cap(attempts) < len(f.replicas) {
		attempts = make([]int, 0, len(f.replicas))
	}
	attempts = attempts[:len(f.replicas)]
	clear(attempts)
	*r = Read{
		f:        f,
		policy:   policy,
		off:      off,
		n:        n,
		attempts: attempts,
		backoff:  retryBackoff,
		target:   -1,
		hedgeTo:  -1,
	}
}

// replicaByDev maps a completion's device ID back to its replica index
// (-1 when the device is not a fleet replica).
func (f *Fleet) replicaByDev(id device.ID) int {
	for i, r := range f.replicas {
		if r.Dev == id {
			return i
		}
	}
	return -1
}

// budgetLeft reports whether any replica still has retry budget this
// read.
func (r *Read) budgetLeft() bool { return r.spent < len(r.attempts) }

// Step feeds the outcome of the previously returned Op (the zero Result
// on the first call) and returns the next Op. done reports completion:
// when true the Op is meaningless and the outcome fields are valid.
func (r *Read) Step(h *iosched.Handle, prev iosched.Result) (op iosched.Op, done bool) {
	if !r.issued {
		// The first call, or the wake from a backoff sleep.
		return r.issue()
	}
	r.issued = false
	if prev.HedgeFired {
		r.Hedged = true
	}
	dev, known := r.winner(prev)
	if prev.Err == nil {
		r.Dev = dev
		return iosched.Op{}, true
	}
	// A faulted completion: observe it against the replica that
	// produced it, burn its budget, and fail over.
	idx := r.target
	if known {
		if byDev := r.f.replicaByDev(dev); byDev >= 0 {
			idx = byDev
		}
	}
	r.Failed++
	r.f.replicas[idx].Faults++
	var fault *device.Fault
	if r.f.tab != nil && errors.As(prev.Err, &fault) {
		r.f.tab.ObserveFault(fault.Dev, fault.Extra, h.Now())
	}
	if !r.budgetLeft() {
		r.Err = fmt.Errorf("fleet: read [%d,+%d) failed on all replicas within budget: %w", r.off, r.n, prev.Err)
		return iosched.Op{}, true
	}
	back := min(r.backoff, retryBackoffCap)
	r.backoff = back * 2
	return iosched.Sleep(back), false
}

// winner returns the device that completed the previous attempt — the
// hedge winner when hedged, the plain target otherwise — and false when
// no attempt has been issued. Device IDs start at 0, so no ID can stand
// for "none".
func (r *Read) winner(prev iosched.Result) (device.ID, bool) {
	if r.hedgeTo >= 0 {
		return prev.Dev, true
	}
	if r.target >= 0 {
		return r.f.replicas[r.target].Dev, true
	}
	return device.None, false
}

// issue selects a replica under the policy and returns its read Op.
func (r *Read) issue() (iosched.Op, bool) {
	if !r.budgetLeft() {
		r.Err = fmt.Errorf("fleet: read [%d,+%d): retry budget exhausted", r.off, r.n)
		return iosched.Op{}, true
	}
	secondary := -1
	var hedgeDelay simclock.Duration
	switch r.policy {
	case PolicyRR:
		// Blind rotation over replicas with budget left.
		nr := len(r.f.replicas)
		r.target = -1
		for probe := 0; probe < nr; probe++ {
			cand := (r.f.rr + probe) % nr
			if r.attempts[cand] < retryAttempts {
				r.target = cand
				r.f.rr = (cand + 1) % nr
				break
			}
		}
	default:
		sel, err := r.f.selectFrom(r.attempts, r.off, r.n)
		if err != nil {
			r.Err = err
			return iosched.Op{}, true
		}
		r.target = sel.Primary
		if r.policy == PolicySLEDHedge {
			secondary = sel.Secondary
		}
		hedgeDelay = sel.HedgeDelay
	}
	r.hedgeTo = secondary
	rep := r.f.replicas[r.target]
	rep.Issued++
	r.attempts[r.target]++
	if r.attempts[r.target] == retryAttempts {
		r.spent++
	}
	r.Attempts++
	r.issued = true
	if secondary < 0 {
		return iosched.DevRead(rep.Dev, rep.inode.Extent()+r.off, r.n), false
	}
	sec := r.f.replicas[secondary]
	return iosched.HedgedDevReadAt(
		rep.Dev, rep.inode.Extent()+r.off,
		sec.Dev, sec.inode.Extent()+r.off,
		r.n, hedgeDelay), false
}
