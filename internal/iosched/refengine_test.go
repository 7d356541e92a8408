package iosched

// The goroutine engine the flat event-heap engine replaced, kept verbatim
// (renamed ref*) as the equivalence oracle: property tests pin the heap
// engine's schedules bit-identical to this one across schedulers, faults
// and retry policies. Streams here are ordinary blocking closures — a
// refQueuedDevice parks the stream's goroutine inside ReadErr/WriteErr and
// never returns vfs.ErrBlocked, so the kernel's resumable I/O layer runs
// synchronously to completion inside each stream, exactly as the old
// blocking kernel did.

import (
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// refEvent is what a running stream reports back to the engine when it
// stops executing: it submitted a request, went to sleep, or finished.
type refEvent struct {
	stream   StreamID
	req      *Request          // non-nil: submitted and blocked
	wake     simclock.Duration // valid when sleeping
	sleeping bool
	finished bool
	err      error
}

// refStream is the engine-side record of one simulated process.
type refStream struct {
	id     StreamID
	clock  *simclock.Clock
	start  simclock.Duration // virtual start offset from the engine base
	fn     func(h *refHandle) error
	resume chan simclock.Duration // engine -> stream: granted virtual time
	state  streamState
	wakeAt simclock.Duration // next resume time while unstarted/sleeping
	finish simclock.Duration // clock at completion, valid when done
	err    error
}

// refDevQueue is the engine-side state of one queued device.
type refDevQueue struct {
	id    device.ID
	dev   device.Device // the unwrapped underlying device
	sched Scheduler

	clock        *simclock.Clock // the device's own service timeline
	free         simclock.Duration
	busy         bool
	inflight     *Request
	inflightDone simclock.Duration
	lastPos      int64 // offset one past the last serviced request
}

// refEngine coordinates streams and device queues over one shared kernel.
type refEngine struct {
	k       *vfs.Kernel
	queues  map[device.ID]*refDevQueue
	order   []device.ID // queued devices in wrap order, for deterministic iteration
	streams []*refStream
	events  chan refEvent
	seq     uint64
	running bool
	current StreamID
	base    simclock.Duration
}

// newRefEngine returns an engine over the kernel's devices.
func newRefEngine(k *vfs.Kernel) *refEngine {
	return &refEngine{
		k:      k,
		queues: make(map[device.ID]*refDevQueue),
		events: make(chan refEvent),
	}
}

// Queue interposes a request queue with the given scheduler on the device
// registered under id.
func (e *refEngine) Queue(id device.ID, sched Scheduler) {
	if e.running {
		panic("iosched: Queue called while running")
	}
	if _, ok := e.queues[id]; ok {
		panic(fmt.Sprintf("iosched: device %d already queued", id))
	}
	raw := e.k.Devices.Get(id)
	dq := &refDevQueue{id: id, dev: raw, sched: sched, clock: simclock.New()}
	e.queues[id] = dq
	e.order = append(e.order, id)
	e.k.Devices.Replace(id, &refQueuedDevice{e: e, dq: dq})
}

// AddStream registers a simulated process that begins executing start
// after the engine's base time.
func (e *refEngine) AddStream(start simclock.Duration, fn func(h *refHandle) error) StreamID {
	if e.running {
		panic("iosched: AddStream called while running")
	}
	id := StreamID(len(e.streams))
	e.streams = append(e.streams, &refStream{
		id:     id,
		start:  start,
		fn:     fn,
		resume: make(chan simclock.Duration),
	})
	return id
}

// refHandle is a stream's interface to the engine.
type refHandle struct {
	e  *refEngine
	id StreamID
}

// ID returns the stream's identity.
func (h *refHandle) ID() StreamID { return h.e.streams[h.id].id }

// Now reports the stream's current virtual time.
func (h *refHandle) Now() simclock.Duration { return h.e.streams[h.id].clock.Now() }

// Sleep suspends the stream for d of virtual time.
func (h *refHandle) Sleep(d simclock.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("iosched: negative sleep %v", d))
	}
	st := h.e.streams[h.id]
	h.e.events <- refEvent{stream: h.id, sleeping: true, wake: st.clock.Now() + d}
	granted := <-st.resume
	st.clock.AdvanceTo(granted)
}

// Run executes all streams to completion in deterministic virtual-time
// order and returns the first error by stream ID.
func (e *refEngine) Run() error {
	if e.running {
		panic("iosched: Run re-entered")
	}
	if len(e.streams) == 0 {
		return nil
	}
	e.running = true
	mainClock := e.k.Clock
	e.base = mainClock.Now()
	for _, dq := range e.queues {
		dq.clock.AdvanceTo(e.base)
		dq.free = e.base
		dq.busy = false
		dq.inflight = nil
	}
	for _, st := range e.streams {
		st.clock = simclock.New()
		st.clock.AdvanceTo(e.base + st.start)
		st.state = stateUnstarted
		st.wakeAt = e.base + st.start
		e.launch(st)
	}

	for !e.allDone() {
		ev, ok := e.nextEvent()
		if !ok {
			panic("iosched: no runnable event with streams outstanding")
		}
		switch ev.kind {
		case evResume:
			e.resumeStream(e.streams[ev.stream], ev.time)
		case evDispatch:
			e.dispatch(e.queues[ev.dev], ev.time)
		}
	}

	var maxFinish simclock.Duration
	for _, st := range e.streams {
		if st.finish > maxFinish {
			maxFinish = st.finish
		}
	}
	mainClock.AdvanceTo(maxFinish)
	e.k.SetClock(mainClock)
	e.running = false
	for _, st := range e.streams {
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// launch starts the stream goroutine.
func (e *refEngine) launch(st *refStream) {
	go func() {
		<-st.resume
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("iosched: stream %d panicked: %v", st.id, p)
				}
			}()
			return st.fn(&refHandle{e: e, id: st.id})
		}()
		e.events <- refEvent{stream: st.id, finished: true, err: err}
	}()
}

// refEngineEvent is one schedulable occurrence.
type refEngineEvent struct {
	time   simclock.Duration
	kind   int // evResume before evDispatch at equal times
	stream StreamID
	dev    device.ID
}

// nextEvent selects the lowest (time, kind, id) pending event.
func (e *refEngine) nextEvent() (refEngineEvent, bool) {
	var best refEngineEvent
	have := false
	consider := func(c refEngineEvent) {
		if !have || c.time < best.time ||
			(c.time == best.time && (c.kind < best.kind ||
				(c.kind == best.kind && ((c.kind == evResume && c.stream < best.stream) ||
					(c.kind == evDispatch && c.dev < best.dev))))) {
			best = c
			have = true
		}
	}
	for _, st := range e.streams {
		switch st.state {
		case stateUnstarted, stateSleeping:
			consider(refEngineEvent{time: st.wakeAt, kind: evResume, stream: st.id})
		}
	}
	for _, id := range e.order {
		dq := e.queues[id]
		if dq.busy {
			consider(refEngineEvent{time: dq.inflightDone, kind: evResume, stream: dq.inflight.Stream})
		} else if dq.sched.Len() > 0 {
			t, _ := dq.sched.MinArrival()
			if t < dq.free {
				t = dq.free
			}
			consider(refEngineEvent{time: t, kind: evDispatch, dev: id})
		}
	}
	return best, have
}

// resumeStream hands control to one stream at virtual time t and blocks
// until it submits, sleeps, or finishes.
func (e *refEngine) resumeStream(st *refStream, t simclock.Duration) {
	// Retire the completed request, if this resume is a completion.
	if st.state == stateBlocked {
		for _, id := range e.order {
			dq := e.queues[id]
			if dq.busy && dq.inflight.Stream == st.id && dq.inflightDone == t {
				dq.busy = false
				dq.free = dq.inflightDone
				dq.lastPos = dq.inflight.Off + dq.inflight.Length
				dq.inflight = nil
				break
			}
		}
	}
	e.current = st.id
	e.k.SetClock(st.clock)
	st.resume <- t
	ev := <-e.events
	if ev.stream != st.id {
		panic("iosched: event from a stream that was not running")
	}
	switch {
	case ev.finished:
		st.state = stateDone
		st.finish = st.clock.Now()
		st.err = ev.err
	case ev.sleeping:
		st.state = stateSleeping
		st.wakeAt = ev.wake
	default:
		st.state = stateBlocked
		e.queues[ev.req.Dev].sched.Add(ev.req)
	}
}

// dispatch starts servicing the scheduler's pick on an idle device at
// virtual time t.
func (e *refEngine) dispatch(dq *refDevQueue, t simclock.Duration) {
	r := dq.sched.Pick(t, dq.lastPos)
	if r == nil {
		panic("iosched: dispatch with no eligible request")
	}
	dq.clock.AdvanceTo(t)
	if r.Write {
		r.Err = device.WriteErr(dq.dev, dq.clock, r.Off, r.Length)
	} else {
		r.Err = device.ReadErr(dq.dev, dq.clock, r.Off, r.Length)
	}
	dq.busy = true
	dq.inflight = r
	dq.inflightDone = dq.clock.Now()
}

// allDone reports whether every stream has finished.
func (e *refEngine) allDone() bool {
	for _, st := range e.streams {
		if st.state != stateDone {
			return false
		}
	}
	return true
}

// submit is called from a stream goroutine (via a refQueuedDevice) to
// queue a request and block until its completion.
func (e *refEngine) submit(c *simclock.Clock, dev device.ID, off, length int64, write bool) error {
	st := e.streams[e.current]
	r := &Request{
		Stream:  st.id,
		Dev:     dev,
		Off:     off,
		Length:  length,
		Write:   write,
		Arrival: c.Now(),
		seq:     e.seq,
	}
	e.seq++
	e.events <- refEvent{stream: st.id, req: r}
	granted := <-st.resume
	c.AdvanceTo(granted)
	return r.Err
}

// FinishTime reports a stream's virtual completion instant.
func (e *refEngine) FinishTime(id StreamID) simclock.Duration {
	return e.streams[id].finish
}

// Base reports the virtual time Run started from.
func (e *refEngine) Base() simclock.Duration { return e.base }

// QueueDepth implements core.Load.
func (e *refEngine) QueueDepth(id device.ID) int {
	dq, ok := e.queues[id]
	if !ok {
		return 0
	}
	return dq.sched.Len()
}

// InFlightRemaining implements core.Load.
func (e *refEngine) InFlightRemaining(id device.ID, now simclock.Duration) simclock.Duration {
	dq, ok := e.queues[id]
	if !ok || !dq.busy {
		return 0
	}
	rem := dq.inflightDone - now
	if rem < 0 {
		rem = 0
	}
	return rem
}

// refQueuedDevice wraps a device with the ref engine's request queue.
type refQueuedDevice struct {
	e  *refEngine
	dq *refDevQueue
}

// Info implements device.Device.
func (q *refQueuedDevice) Info() device.Info { return q.dq.dev.Info() }

// Read implements the infallible device path.
func (q *refQueuedDevice) Read(c *simclock.Clock, off, length int64) {
	if err := q.ReadErr(c, off, length); err != nil {
		panic(fmt.Sprintf("iosched: infallible Read on a faulted device: %v", err))
	}
}

// Write implements the infallible device path; see Read.
func (q *refQueuedDevice) Write(c *simclock.Clock, off, length int64) {
	if err := q.WriteErr(c, off, length); err != nil {
		panic(fmt.Sprintf("iosched: infallible Write on a faulted device: %v", err))
	}
}

// ReadErr implements device.FallibleDevice.
func (q *refQueuedDevice) ReadErr(c *simclock.Clock, off, length int64) error {
	if !q.e.running {
		return device.ReadErr(q.dq.dev, c, off, length)
	}
	return q.e.submit(c, q.dq.id, off, length, false)
}

// WriteErr implements device.FallibleDevice.
func (q *refQueuedDevice) WriteErr(c *simclock.Clock, off, length int64) error {
	if !q.e.running {
		return device.WriteErr(q.dq.dev, c, off, length)
	}
	return q.e.submit(c, q.dq.id, off, length, true)
}

// Reset implements device.Device.
func (q *refQueuedDevice) Reset() {
	if q.e.running {
		panic("iosched: Reset while running")
	}
	q.dq.dev.Reset()
	q.dq.lastPos = 0
	q.dq.busy = false
	q.dq.inflight = nil
	q.dq.free = 0
}

// The linear-scan schedulers the indexed ones replaced, kept as oracles.

// refQueue is the shared request store: a slice in insertion (seq) order.
type refQueue struct {
	reqs []*Request
}

func (q *refQueue) Add(r *Request) { q.reqs = append(q.reqs, r) }
func (q *refQueue) Len() int       { return len(q.reqs) }
func (q *refQueue) remove(idx int) *Request {
	r := q.reqs[idx]
	q.reqs = append(q.reqs[:idx], q.reqs[idx+1:]...)
	return r
}

func (q *refQueue) MinArrival() (simclock.Duration, bool) {
	if len(q.reqs) == 0 {
		return 0, false
	}
	min := q.reqs[0].Arrival
	for _, r := range q.reqs[1:] {
		if r.Arrival < min {
			min = r.Arrival
		}
	}
	return min, true
}

// refFCFS services requests strictly in arrival order.
type refFCFS struct{ refQueue }

func newRefFCFS() *refFCFS { return &refFCFS{} }

// Pick implements Scheduler: earliest arrival, seq tie-break.
func (s *refFCFS) Pick(now simclock.Duration, pos int64) *Request {
	best := -1
	for i, r := range s.reqs {
		if r.Arrival > now {
			continue
		}
		if best < 0 || r.Arrival < s.reqs[best].Arrival ||
			(r.Arrival == s.reqs[best].Arrival && r.seq < s.reqs[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return s.remove(best)
}

// refSSTF is shortest-seek-time-first.
type refSSTF struct{ refQueue }

func newRefSSTF() *refSSTF { return &refSSTF{} }

// Pick implements Scheduler: minimum |Off - pos|, ties to the lower
// offset (ascending sweep), then seq.
func (s *refSSTF) Pick(now simclock.Duration, pos int64) *Request {
	best := -1
	var bestDist int64
	for i, r := range s.reqs {
		if r.Arrival > now {
			continue
		}
		d := r.Off - pos
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist ||
			(d == bestDist && (r.Off < s.reqs[best].Off ||
				(r.Off == s.reqs[best].Off && r.seq < s.reqs[best].seq))) {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return nil
	}
	return s.remove(best)
}

// refDeadline is the Linux-deadline-style hybrid.
type refDeadline struct {
	refQueue
}

// Pick implements Scheduler: the earliest-expiring eligible request if it
// has expired, else SSTF order. A request expires deadlineQuantum after it
// arrives.
func (s *refDeadline) Pick(now simclock.Duration, pos int64) *Request {
	expiry := func(i int) simclock.Duration { return s.reqs[i].Arrival + deadlineQuantum }
	oldest := -1
	for i, r := range s.reqs {
		if r.Arrival > now {
			continue
		}
		if oldest < 0 || expiry(i) < expiry(oldest) ||
			(expiry(i) == expiry(oldest) && r.seq < s.reqs[oldest].seq) {
			oldest = i
		}
	}
	if oldest < 0 {
		return nil
	}
	if expiry(oldest) <= now {
		return s.remove(oldest)
	}
	best := -1
	var bestDist int64
	for i, r := range s.reqs {
		if r.Arrival > now {
			continue
		}
		d := r.Off - pos
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist ||
			(d == bestDist && (r.Off < s.reqs[best].Off ||
				(r.Off == s.reqs[best].Off && r.seq < s.reqs[best].seq))) {
			best, bestDist = i, d
		}
	}
	return s.remove(best)
}

// newRefScheduler builds a reference scheduler by policy name.
func newRefScheduler(name string) Scheduler {
	switch name {
	case "fcfs":
		return newRefFCFS()
	case "sstf":
		return newRefSSTF()
	case "deadline":
		return &refDeadline{}
	default:
		panic(fmt.Sprintf("iosched: unknown scheduler %q", name))
	}
}
