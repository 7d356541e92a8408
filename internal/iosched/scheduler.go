package iosched

import (
	"fmt"
	"sort"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Request is one I/O request queued at a device: who asked, what extent,
// and when. Arrival is the submitting stream's virtual time at submission.
type Request struct {
	Stream  StreamID
	Dev     device.ID
	Off     int64
	Length  int64
	Write   bool
	Arrival simclock.Duration

	// Err is the outcome of servicing the request: non-nil when the
	// underlying (fault-injected) device failed the dispatch. It travels
	// back to the submitting stream, whose kernel retry policy decides
	// whether to resubmit.
	Err error

	// seq is the engine-wide submission sequence number. Submission order
	// is itself deterministic (the engine runs streams in virtual-time,
	// stream-ID order), so seq is a stable final tie-break for schedulers.
	// It also names this submission of a reused record: a hedge deadline
	// and an arrival heap entry hold the seq they were made for.
	seq uint64

	// picked marks a request removed through a scheduler's offset index;
	// the arrival heap deletes lazily, dropping its entry when it surfaces.
	picked bool

	// cancelled marks a hedge loser: if still queued it is dropped when a
	// dispatch surfaces it; if already in flight it completes unclaimed
	// (the device time is spent, the stream has moved on).
	cancelled bool
}

// Scheduler is a pluggable per-device request scheduling policy. The
// engine owns exactly one scheduler instance per queued device; schedulers
// are not safe for concurrent use (the engine is strictly sequential).
//
// Determinism contract: Pick must break every tie by a deterministic key
// (never map order or pointer identity), so that identical submission
// sequences produce identical service orders on every run.
//
// Ownership: a scheduler must not keep a request after Pick returns it.
// The engine reuses the record for a later submission once the request
// completes, so anything left behind that points at it — such as the
// arrival heap's lazily deleted entries — must check the seq it was made
// with before trusting it.
type Scheduler interface {
	// Add queues a request.
	Add(r *Request)

	// Pick removes and returns the request to service next among those
	// with Arrival <= now. pos is the device byte offset one past the
	// previously serviced request (the head position proxy for seek-aware
	// policies). Returns nil if no queued request is eligible yet.
	Pick(now simclock.Duration, pos int64) *Request

	// Len reports the number of queued (not yet serviced) requests.
	Len() int

	// MinArrival reports the earliest arrival among queued requests; ok is
	// false when the queue is empty.
	MinArrival() (t simclock.Duration, ok bool)
}

// FCFS and Deadline's expiry check answer every Pick from the arrival
// heap's minimum, SSTF from its offset index. A Pick can find requests
// still in the future: a device dispatches at the earliest queued arrival,
// and streams submit requests stamped with their own clocks, which can run
// ahead of the event being processed. SSTF's walk outward from the head
// skips them, so one path serves every Pick; FuzzSchedulers holds it, pick
// for pick, to the linear scan the policy was first written as.

// arrivalEntry is one arrival heap slot: the request with its (Arrival,
// seq) key copied inline, so a sift compares without following a pointer.
// The engine reuses a request once it completes, so the entry is live only
// while the request still carries the seq it was queued with and has not
// been picked.
type arrivalEntry struct {
	at  simclock.Duration
	seq uint64
	r   *Request
}

// less is the (Arrival, seq) order shared by FCFS service order,
// MinArrival, and deadline expiry (one constant quantum after arrival
// preserves it).
func (a *arrivalEntry) less(b *arrivalEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// live reports whether the entry still stands for a queued request.
func (a *arrivalEntry) live() bool { return a.r.seq == a.seq && !a.r.picked }

// arrivalHeap is a binary min-heap of requests under (Arrival, seq), with
// lazy deletion: requests removed through an offset index stay in the
// heap as dead entries, discarded when they reach the top.
type arrivalHeap []arrivalEntry

func (h *arrivalHeap) push(r *Request) {
	*h = append(*h, arrivalEntry{at: r.Arrival, seq: r.seq, r: r})
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// peek returns the live minimum, discarding dead entries; nil if empty.
func (h *arrivalHeap) peek() *Request {
	for len(*h) > 0 {
		if top := &(*h)[0]; top.live() {
			return top.r
		}
		h.pop()
	}
	return nil
}

func (h *arrivalHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s[last] = arrivalEntry{}
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s[l].less(&s[smallest]) {
			smallest = l
		}
		if r < len(s) && s[r].less(&s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// offIndex keeps queued requests sorted by (Off, seq), the key seek-aware
// policies pick by.
type offIndex []*Request

func offLess(a, b *Request) bool {
	return a.Off < b.Off || (a.Off == b.Off && a.seq < b.seq)
}

func (x *offIndex) insert(r *Request) {
	s := *x
	i := sort.Search(len(s), func(i int) bool { return !offLess(s[i], r) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = r
	*x = s
}

// remove deletes r, which must be present.
func (x *offIndex) remove(r *Request) {
	s := *x
	i := sort.Search(len(s), func(i int) bool { return !offLess(s[i], r) })
	if i >= len(s) || s[i] != r {
		panic("iosched: request missing from offset index")
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	*x = s[:len(s)-1]
}

// nearest returns the SSTF pick among requests with Arrival <= now, nil
// if none is eligible: minimum |Off - pos|, ties to the lower offset, then
// seq. It walks outward from pos. Rightward, the first eligible request is
// the lowest seq at the lowest eligible offset at or above pos; leftward,
// the walk stops below the first offset holding an eligible request, and
// the last one it took there has that offset's lowest seq.
func (x offIndex) nearest(now simclock.Duration, pos int64) *Request {
	i := sort.Search(len(x), func(i int) bool { return x[i].Off >= pos })
	var left, right *Request
	for _, r := range x[i:] {
		if r.Arrival <= now {
			right = r
			break
		}
	}
	for j := i - 1; j >= 0 && (left == nil || x[j].Off == left.Off); j-- {
		if x[j].Arrival <= now {
			left = x[j]
		}
	}
	switch {
	case right == nil:
		return left
	case left == nil:
		return right
	}
	dl := pos - left.Off  // > 0: left.Off < pos
	dr := right.Off - pos // >= 0
	if dr < dl {
		return right
	}
	// dl < dr, or a distance tie — which the lower offset (left) wins.
	return left
}

// arrivals is the queue core every policy embeds: the (Arrival, seq) heap
// and the live count, which answer Len and MinArrival for all of them.
type arrivals struct {
	h arrivalHeap
	n int
}

// Add implements Scheduler.
func (a *arrivals) Add(r *Request) {
	a.h.push(r)
	a.n++
}

// Len implements Scheduler.
func (a *arrivals) Len() int { return a.n }

// MinArrival implements Scheduler.
func (a *arrivals) MinArrival() (simclock.Duration, bool) {
	r := a.h.peek()
	if r == nil {
		return 0, false
	}
	return r.Arrival, true
}

// FCFS services requests strictly in arrival order (the no-scheduler
// baseline: a single FIFO per device).
type FCFS struct{ arrivals }

// NewFCFS returns a first-come-first-served scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Pick implements Scheduler: earliest arrival, seq tie-break. The global
// (Arrival, seq) minimum is the answer whenever it is eligible, and
// nothing is eligible when it is not.
func (s *FCFS) Pick(now simclock.Duration, pos int64) *Request {
	r := s.h.peek()
	if r == nil || r.Arrival > now {
		return nil
	}
	s.h.pop()
	s.n--
	return r
}

// SSTF is shortest-seek-time-first: it services the eligible request whose
// offset is nearest the device's current position, the classic elevator
// family policy for seek-dominated devices (disk.go's three-term seek
// curve makes distance-in-bytes a faithful proxy for distance-in-
// cylinders, since cylinders are a linear slicing of the byte space).
type SSTF struct {
	arrivals
	x offIndex
}

// NewSSTF returns a shortest-seek-time-first scheduler.
func NewSSTF() *SSTF { return &SSTF{} }

// Add implements Scheduler.
func (s *SSTF) Add(r *Request) {
	s.arrivals.Add(r)
	s.x.insert(r)
}

// Pick implements Scheduler: minimum |Off - pos|, ties to the lower
// offset (ascending sweep), then seq.
func (s *SSTF) Pick(now simclock.Duration, pos int64) *Request {
	r := s.x.nearest(now, pos)
	if r == nil {
		return nil
	}
	return s.take(r)
}

// take removes r from the queue; the arrival heap drops it lazily.
func (s *SSTF) take(r *Request) *Request {
	s.x.remove(r)
	r.picked = true
	s.n--
	return r
}

// Deadline is the Linux-deadline-style hybrid: requests are normally
// serviced in SSTF order, but every request expires deadlineQuantum after
// it arrives and an expired request preempts seek optimisation, bounding
// the starvation SSTF inflicts on far-away offsets.
type Deadline struct{ SSTF }

// deadlineQuantum bounds request sojourn under the deadline policy; it is
// of the order of a few disk service times, like the Linux deadline
// scheduler's read expiry.
const deadlineQuantum = 100 * simclock.Millisecond

// NewDeadline returns a deadline scheduler.
func NewDeadline() *Deadline { return &Deadline{} }

// Pick implements Scheduler: the earliest-expiring eligible request if it
// has expired, else SSTF order. With one constant quantum, expiry order is
// (Arrival, seq) order, so the arrival heap's live minimum is the first
// request to expire, and it is eligible exactly when any request is.
func (s *Deadline) Pick(now simclock.Duration, pos int64) *Request {
	oldest := s.h.peek()
	if oldest == nil || oldest.Arrival > now {
		return nil
	}
	if oldest.Arrival+deadlineQuantum <= now {
		return s.take(oldest)
	}
	return s.SSTF.Pick(now, pos)
}

// NewScheduler builds a scheduler by policy name; it is the factory the
// experiment sweeps select policies with.
func NewScheduler(name string) Scheduler {
	switch name {
	case "fcfs":
		return NewFCFS()
	case "sstf":
		return NewSSTF()
	case "deadline":
		return NewDeadline()
	default:
		panic(fmt.Sprintf("iosched: unknown scheduler %q", name))
	}
}
