// Package iosched adds multi-stream concurrency to the simulated storage
// stack: simulated processes ("streams") that submit I/O concurrently in
// virtual time, per-device request queues with pluggable scheduling
// policies, and the queueing state feed that makes SLED estimates
// load-aware (internal/core's Load interface).
//
// The paper's evaluation is single-process, but its §4/§6 discussion makes
// clear that SLED estimates must reflect dynamic conditions; under
// contention the dominant latency source is queueing, which this package
// makes visible to both the simulator and the sleds table.
//
// # Determinism
//
// The engine is a discrete-event simulator: exactly one stream executes at
// a time, and the engine always processes the lowest-timestamped pending
// event: the top of a global event heap, or the next stream due to start
// (starts are known up front and wait in a sorted list instead of the
// heap). Events at equal virtual time are ordered resume-before-dispatch,
// then by stream ID (resumes) or device ID (dispatches). Every stream is an
// explicit state machine (Program), not a goroutine: a stream that issues
// I/O against a queued device suspends as a continuation (vfs.IOStep)
// holding the in-progress kernel operation, and the engine resumes it with
// the dispatch outcome when the device completes the request. A stream
// costs one stream record plus one continuation instead of a parked
// goroutine stack, which is what makes 10,000-stream runs practical. The
// package starts no goroutine and owns no channel, so execution is
// sequential, race-free, and byte-identical on every run at any GOMAXPROCS
// by construction.
package iosched

import (
	"cmp"
	"fmt"
	"slices"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// StreamID identifies one simulated process within an Engine.
type StreamID int

// streamState is the lifecycle of one stream.
type streamState int

const (
	stateUnstarted streamState = iota
	stateBlocked               // waiting for a request completion
	stateSleeping              // waiting for a timer
	stateDone
)

// stream is the engine-side record of one simulated process: its program,
// its clock, and — while blocked — the suspended kernel operation and the
// request whose completion resumes it.
//
// Everything a stream needs while it runs — its Handle, its clock, the
// state of a hedged read — is part of the record, so resuming a stream and
// running an Op allocate nothing.
type stream struct {
	id     StreamID
	h      Handle            // passed to every Step
	clock  simclock.Clock    // the stream's own timeline, restarted by each Run
	start  simclock.Duration // virtual start offset from the engine base
	prog   Program
	state  streamState
	wakeAt simclock.Duration // next resume time while unstarted/sleeping
	cont   vfs.IOStep        // the suspended operation, valid when blocked
	req    *Request          // the queued/in-flight request, valid when blocked
	hedge  hedgeState        // the hedged read it is blocked on, if primary is set
	res    Result            // outcome fed to the next Step call
	finish simclock.Duration // clock at completion, valid when done
	err    error
}

// hedgeState is a stream's in-progress hedged read (the HedgedDev-
// Read op): the primary request, the standby secondary target, and — once
// the virtual-time deadline fires — the secondary request racing the
// primary. The first completion wins; settleHedge cancels the loser.
type hedgeState struct {
	primary      *Request
	secondaryDev device.ID
	secOff       int64    // the secondary's device offset (replicas may differ)
	secondary    *Request // non-nil once the deadline fired
}

// devQueue is the engine-side state of one queued device.
type devQueue struct {
	id    device.ID
	dev   device.Handle // the unwrapped underlying device
	sched Scheduler

	clock        *simclock.Clock // the device's own service timeline
	free         simclock.Duration
	inflight     *Request // the request being serviced; nil when idle
	inflightDone simclock.Duration
	lastPos      int64             // offset one past the last serviced request
	dispatchUp   bool              // a dispatch event for this device is live on the heap
	dispatchAt   simclock.Duration // the live dispatch event's time, valid when dispatchUp

	// cancelledQueued counts requests cancelled while still queued (hedge
	// losers). They stay in the scheduler until a dispatch surfaces and
	// drops them, so QueueDepth subtracts them to keep load estimates
	// honest.
	cancelledQueued int
}

// Engine coordinates streams and device queues over one shared kernel.
type Engine struct {
	k       *vfs.Kernel
	queues  []*devQueue // indexed by device.ID (dense registry indexes); nil = not queued
	streams []*stream
	block   []stream   // unused stream records; AddStream refills it as large as streams
	free    []*Request // released requests, for newRequest to reuse
	heap    eventHeap
	// starts lists the streams in (start time, ID) order for the Run in
	// progress; those before nextStart have started.
	starts    []StreamID
	nextStart int
	seq       uint64
	running   bool
	current   StreamID
	base      simclock.Duration
	pending   *Request // handoff from QueuedDevice.submit to the op loop
	events    uint64   // events processed across all Runs, for benchmarks

	// orphanObs, when set, observes cancelled hedge losers that completed
	// with an error after losing the race (see SetOrphanObserver).
	orphanObs func(dev device.ID, err error, at simclock.Duration)
}

// NewEngine returns an engine over the kernel's devices. Wrap devices with
// Queue, add streams with AddStream, then call Run.
func NewEngine(k *vfs.Kernel) *Engine { return &Engine{k: k} }

// queueOf returns the queue interposed on id, or nil when the device is not
// queued (or is no device at all).
func (e *Engine) queueOf(id device.ID) *devQueue {
	if id < 0 || int(id) >= len(e.queues) {
		return nil
	}
	return e.queues[id]
}

// Queue interposes a request queue with the given scheduler on the device
// registered under id. The wrapper satisfies device.Device, so the VFS and
// the cache work unchanged; outside Run it passes accesses straight
// through (boot-time calibration and setup I/O see the raw device).
func (e *Engine) Queue(id device.ID, sched Scheduler) {
	if e.running {
		panic("iosched: Queue called while running")
	}
	if e.queueOf(id) != nil {
		panic(fmt.Sprintf("iosched: device %d already queued", id))
	}
	dq := &devQueue{id: id, dev: e.k.Devices.Handle(id), sched: sched, clock: simclock.New()}
	for int(id) >= len(e.queues) {
		e.queues = append(e.queues, nil)
	}
	e.queues[id] = dq
	e.k.Devices.Replace(id, &QueuedDevice{e: e, dq: dq})
}

// AddStream registers a simulated process that begins executing start
// after the engine's base time. The program runs against the shared
// kernel; every kernel call it makes is charged to the stream's own
// virtual clock. Streams are resumed in (virtual time, StreamID) order.
func (e *Engine) AddStream(start simclock.Duration, prog Program) StreamID {
	if e.running {
		panic("iosched: AddStream called while running")
	}
	id := StreamID(len(e.streams))
	if len(e.block) == 0 {
		e.block = make([]stream, max(1, len(e.streams)))
	}
	st := &e.block[0]
	e.block = e.block[1:]
	*st = stream{id: id, h: Handle{k: e.k}, start: start, prog: prog}
	e.streams = append(e.streams, st)
	return id
}

// SetOrphanObserver registers a callback for faults surfaced by cancelled
// hedge losers: a loser already being serviced when the race settled
// completes unclaimed, and if that completion carries an error no stream
// ever sees it — the winner masked it. Real clients still log the late
// RPC failure, and health accounting wants it (a degraded replica that
// always loses its races would otherwise never be demoted). The observer
// runs at the loser's completion instant. Losers dropped while still
// queued were never sent, so they are not reported.
func (e *Engine) SetOrphanObserver(fn func(dev device.ID, err error, at simclock.Duration)) {
	if e.running {
		panic("iosched: SetOrphanObserver called while running")
	}
	e.orphanObs = fn
}

// Run executes all streams to completion in deterministic virtual-time
// order and returns the first error by stream ID. The kernel's clock is
// advanced to the latest stream finish time before returning, and the
// kernel is left usable for single-stream code again.
func (e *Engine) Run() error {
	if e.running {
		panic("iosched: Run re-entered")
	}
	if len(e.streams) == 0 {
		return nil
	}
	e.running = true
	mainClock := e.k.Clock
	e.base = mainClock.Now()
	e.heap = e.heap[:0]
	for _, dq := range e.queues {
		if dq == nil {
			continue
		}
		dq.clock.AdvanceTo(e.base)
		dq.free = e.base
		dq.inflight = nil
		dq.dispatchUp = false
		dq.cancelledQueued = 0
	}
	e.starts, e.nextStart = e.starts[:0], 0
	for _, st := range e.streams {
		st.clock = simclock.Clock{}
		st.clock.AdvanceTo(e.base + st.start)
		st.state = stateUnstarted
		st.wakeAt = e.base + st.start
		st.cont = vfs.IOStep{}
		st.req = nil
		st.hedge = hedgeState{}
		st.res = Result{}
		st.err = nil
		e.starts = append(e.starts, st.id)
	}
	// A stream start is a plain resume that is known before anything runs,
	// so starts never enter the heap: they wait in (time, ID) order — the
	// order eventLess gives plain resumes — and the loop merges the list
	// with the heap. The heap then holds only what running streams create,
	// and its depth follows the streams in flight, not the streams declared.
	slices.SortStableFunc(e.starts, func(a, b StreamID) int {
		return cmp.Compare(e.streams[a].wakeAt, e.streams[b].wakeAt)
	})

	for {
		ev, ok := e.nextEvent()
		if !ok {
			break
		}
		e.events++
		switch ev.kind {
		case evResume:
			st := e.streams[ev.id]
			if ev.req != nil {
				// A completion event: free the device whatever happens to
				// the stream.
				e.retireReq(ev.req)
				if ev.req.cancelled {
					// A hedge loser: nobody is waiting on it, but a fault it
					// surfaced is still real — report it to the observer so
					// health accounting sees failures the race masked.
					if ev.req.Err != nil && e.orphanObs != nil {
						e.orphanObs(ev.req.Dev, ev.req.Err, ev.time)
					}
					e.release(ev.req)
					continue
				}
				if st.hedge.primary != nil {
					e.settleHedge(st, ev.req)
					e.release(ev.req)
				}
			}
			e.runStream(st, ev.time)
		case evHedge:
			e.fireHedge(e.streams[ev.id], ev.seq, ev.time)
		case evDispatch:
			dq := e.queues[ev.id]
			if !dq.dispatchUp || ev.time != dq.dispatchAt {
				continue // superseded by an earlier-arriving submission
			}
			e.dispatch(dq, ev.time)
		}
	}
	for _, st := range e.streams {
		if st.state != stateDone {
			panic("iosched: no runnable event with streams outstanding")
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

// nextEvent takes the earliest pending event: the next unstarted stream's
// start or the top of the heap, whichever eventLess puts first. ok is false
// when nothing is pending.
func (e *Engine) nextEvent() (ev engineEvent, ok bool) {
	if e.nextStart < len(e.starts) {
		st := e.streams[e.starts[e.nextStart]]
		start := resumeEvent(st.wakeAt, st.id, nil)
		if len(e.heap) == 0 || eventLess(&start, &e.heap[0]) {
			e.nextStart++
			return start, true
		}
	}
	if len(e.heap) == 0 {
		return engineEvent{}, false
	}
	return e.heap.pop(), true
}

// retireReq returns a completed request's device to idle and, if requests
// are waiting there, queues the next dispatch. The next dispatch lands at
// the same instant but after every same-instant resume, so a request
// submitted "now" by a just-resumed stream is visible to the scheduler
// deciding "now".
func (e *Engine) retireReq(r *Request) {
	dq := e.queues[r.Dev] // a request only ever exists for a queued device
	dq.free = dq.inflightDone
	dq.lastPos = r.Off + r.Length
	dq.inflight = nil
	e.maybeDispatch(dq)
}

// settleHedge resolves a stream's hedged read with the request that
// completed first: the loser (if any) is cancelled — dropped at its next
// dispatch if still queued, or left to finish as an unclaimed completion
// if already occupying its device (a real cancellation cannot recall a
// request the server is servicing) — and the winner's outcome becomes the
// stream's next Result.
func (e *Engine) settleHedge(st *stream, winner *Request) {
	hs := &st.hedge
	loser := hs.secondary
	if winner != hs.primary {
		loser = hs.primary
	}
	if loser != nil {
		loser.cancelled = true
		lq := e.queues[loser.Dev]
		if lq.inflight != loser {
			lq.cancelledQueued++
		}
	}
	st.res = Result{Err: winner.Err, Dev: winner.Dev, HedgeFired: hs.secondary != nil}
}

// fireHedge handles a hedge deadline expiring: if the guarded read is
// still outstanding, the secondary request is submitted to its device with
// the deadline instant as its arrival. The deadline names its primary by
// seq (the event's seq, one past the primary's), never by pointer: a
// deadline whose read already completed, or that already fired, is stale
// and ignored, even when the stream's next hedged read reuses the record.
func (e *Engine) fireHedge(st *stream, seq uint64, t simclock.Duration) {
	hs := &st.hedge
	if hs.primary == nil || hs.primary.seq+1 != seq || hs.secondary != nil {
		return
	}
	sq := e.queueOf(hs.secondaryDev)
	if sq == nil {
		return // unqueued secondary: nothing to race the primary against
	}
	hs.secondary = e.newRequest(st.id, hs.secondaryDev, hs.secOff, hs.primary.Length, false, t)
	e.enqueue(sq, hs.secondary)
}

// newRequest builds a request stamped with the next submission seq, in a
// released record when there is one.
func (e *Engine) newRequest(stream StreamID, dev device.ID, off, length int64, write bool, arrival simclock.Duration) *Request {
	var r *Request
	if n := len(e.free); n > 0 {
		r, e.free = e.free[n-1], e.free[:n-1]
	} else {
		r = new(Request)
	}
	*r = Request{Stream: stream, Dev: dev, Off: off, Length: length, Write: write, Arrival: arrival, seq: e.seq}
	e.seq++
	return r
}

// release hands a request no one will read again back to newRequest. That
// is one of four points in its life: its stream has read its Err
// (runStream), it won a hedged race (after settleHedge), it lost one and
// completed in flight (after the orphan observer), or it lost one and was
// dropped from its queue (dispatch). Its seq stays until reuse, so the
// arrival heap entries it leaves behind stay dead.
func (e *Engine) release(r *Request) { e.free = append(e.free, r) }

// enqueue queues r at its device and schedules a dispatch if the device
// is idle.
func (e *Engine) enqueue(dq *devQueue, r *Request) {
	dq.sched.Add(r)
	e.maybeDispatch(dq)
}

// maybeDispatch queues a dispatch event for an idle device with waiting
// requests, at the instant the device can next start one. Streams advance
// their own clocks between resuming and submitting, so a submission
// processed later can still carry an earlier arrival and pull the dispatch
// instant forward: the earlier event is pushed alongside the stale one,
// dispatchAt marks which is live, and the loop drops the superseded pop.
func (e *Engine) maybeDispatch(dq *devQueue) {
	if dq.inflight != nil || dq.sched.Len() == 0 {
		return
	}
	t, _ := dq.sched.MinArrival()
	if t < dq.free {
		t = dq.free
	}
	if dq.dispatchUp && dq.dispatchAt <= t {
		return
	}
	dq.dispatchUp = true
	dq.dispatchAt = t
	e.heap.push(engineEvent{time: t, kind: evDispatch, id: int32(dq.id)})
}

// runStream executes one stream from virtual time t until it suspends on
// a request, sleeps, or finishes: first resuming the suspended operation
// with its request's outcome (if the stream was blocked), then pulling Ops
// from the program.
func (e *Engine) runStream(st *stream, t simclock.Duration) {
	st.clock.AdvanceTo(t)
	e.current = st.id
	e.k.SetClock(&st.clock)

	var step vfs.IOStep
	haveStep := false
	if st.state == stateBlocked {
		if st.hedge.primary != nil {
			// A hedged read resolved: settleHedge already folded the
			// winner's outcome into st.res, and there is no kernel
			// continuation to resume — the hedged access is a raw device
			// op. Fall through to the next Step call.
			st.hedge = hedgeState{}
		} else {
			devErr := st.req.Err
			e.release(st.req)
			st.req = nil
			cont := st.cont
			st.cont = vfs.IOStep{}
			if !e.protect(st, func() { step = cont.Resume(devErr) }) {
				return
			}
			haveStep = true
		}
	}

	for {
		if haveStep {
			haveStep = false
			if step.Blocked() {
				r := e.pending
				if r == nil {
					panic("iosched: operation suspended without a submitted request")
				}
				e.pending = nil
				st.state = stateBlocked
				st.cont = step
				st.req = r
				e.enqueue(e.queues[r.Dev], r)
				return
			}
			st.res = Result{N: int(step.N()), Err: step.Err()}
		}
		var op Op
		if !e.protect(st, func() { op = st.prog.Step(&st.h, st.res) }) {
			return
		}
		switch op.kind {
		case opExit:
			st.state = stateDone
			st.finish = st.clock.Now()
			st.err = op.err
			return
		case opSleep:
			if op.dur < 0 {
				st.state = stateDone
				st.finish = st.clock.Now()
				st.err = fmt.Errorf("iosched: stream %d panicked: iosched: negative sleep %v", st.id, op.dur)
				return
			}
			st.state = stateSleeping
			st.wakeAt = st.clock.Now() + op.dur
			e.heap.push(resumeEvent(st.wakeAt, st.id, nil))
			return
		case opHedge:
			if op.dur < 0 {
				st.state = stateDone
				st.finish = st.clock.Now()
				st.err = fmt.Errorf("iosched: stream %d panicked: iosched: negative hedge delay %v", st.id, op.dur)
				return
			}
			dq := e.queueOf(op.dev)
			if dq == nil {
				// An unqueued primary completes in place (as in deviceStep
				// outside a queue): nothing to hedge against.
				err := e.k.Devices.Handle(op.dev).ReadErr(&st.clock, op.off, op.length)
				st.res = Result{Err: err, Dev: op.dev}
				continue
			}
			r := e.newRequest(st.id, op.dev, op.off, op.length, false, st.clock.Now())
			st.state = stateBlocked
			st.hedge = hedgeState{primary: r, secondaryDev: op.dev2, secOff: op.off2}
			e.enqueue(dq, r)
			e.heap.push(engineEvent{time: st.clock.Now() + op.dur, kind: evHedge, id: int32(st.id), seq: r.seq + 1})
			return
		default: // an I/O, which may suspend on a queued device
			if !e.protect(st, func() { step = op.start(e.k) }) {
				return
			}
			haveStep = true
		}
	}
}

// protect runs one slice of stream code, converting a panic into stream
// failure so one broken stream cannot take down the engine. Reports
// whether fn completed normally.
func (e *Engine) protect(st *stream, fn func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			e.pending = nil
			st.state = stateDone
			st.finish = st.clock.Now()
			st.err = fmt.Errorf("iosched: stream %d panicked: %v", st.id, p)
		}
	}()
	fn()
	return true
}

// dispatch starts servicing the scheduler's pick on an idle device at
// virtual time t, running the underlying device model on the device's own
// timeline. A fault from the underlying device (a stacked faults.Injector)
// rides back to the submitting stream in r.Err; the failed attempt still
// occupies the device for the time it cost.
func (e *Engine) dispatch(dq *devQueue, t simclock.Duration) {
	dq.dispatchUp = false
	var r *Request
	for {
		r = dq.sched.Pick(t, dq.lastPos)
		if r == nil {
			panic("iosched: dispatch with no eligible request")
		}
		if !r.cancelled {
			break
		}
		// A hedge loser cancelled while still queued: drop it without
		// occupying the device. If the drop empties the eligible set, the
		// remaining arrivals are in the future — let maybeDispatch requeue
		// at the right instant.
		dq.cancelledQueued--
		e.release(r)
		if dq.sched.Len() == 0 {
			return
		}
		if ta, _ := dq.sched.MinArrival(); ta > t {
			e.maybeDispatch(dq)
			return
		}
	}
	dq.clock.AdvanceTo(t)
	if r.Write {
		r.Err = dq.dev.WriteErr(dq.clock, r.Off, r.Length)
	} else {
		r.Err = dq.dev.ReadErr(dq.clock, r.Off, r.Length)
	}
	dq.inflight = r
	dq.inflightDone = dq.clock.Now()
	e.heap.push(resumeEvent(dq.inflightDone, r.Stream, r))
}

// submit is called from inside a running stream (via a QueuedDevice) to
// register a request with the engine. The access does not complete here:
// the caller gets vfs.ErrBlocked, the resumable layer captures the
// operation as a continuation, and the engine feeds the dispatch outcome
// back in at completion time.
func (e *Engine) submit(c *simclock.Clock, dev device.ID, off, length int64, write bool) error {
	if e.pending != nil {
		panic("iosched: overlapping queued submissions in one op step")
	}
	e.pending = e.newRequest(e.current, dev, off, length, write, c.Now())
	return vfs.ErrBlocked
}

// Events reports the number of engine events processed so far (stream
// resumes and device dispatches, summed over every Run on this engine).
// It is the work metric the events/sec benchmarks rate.
func (e *Engine) Events() uint64 { return e.events }

// FinishTime reports a stream's virtual completion instant (meaningful
// after Run).
func (e *Engine) FinishTime(id StreamID) simclock.Duration {
	return e.streams[id].finish
}

// Base reports the virtual time Run started from.
func (e *Engine) Base() simclock.Duration { return e.base }

// QueueDepth implements core.Load: the number of requests waiting (not
// yet dispatched) at the device, excluding cancelled hedge losers that
// will be dropped, not serviced. Unqueued devices report 0.
func (e *Engine) QueueDepth(id device.ID) int {
	dq := e.queueOf(id)
	if dq == nil {
		return 0
	}
	return dq.sched.Len() - dq.cancelledQueued
}

// InFlightRemaining implements core.Load: the remaining service time of
// the request the device is currently working on, as seen from virtual
// time now. Idle or unqueued devices report 0.
func (e *Engine) InFlightRemaining(id device.ID, now simclock.Duration) simclock.Duration {
	dq := e.queueOf(id)
	if dq == nil || dq.inflight == nil {
		return 0
	}
	rem := dq.inflightDone - now
	if rem < 0 {
		rem = 0
	}
	return rem
}

// QueuedDevice wraps a device with the engine's request queue. It
// satisfies device.Device and device.FallibleDevice, so internal/vfs and
// internal/cache use it unchanged: during Run a fallible access registers
// a request and suspends the issuing operation (vfs.ErrBlocked); outside
// Run the wrapper is transparent. How it stacks with other wrappers is
// DESIGN.md, "Wrapping a device".
type QueuedDevice struct {
	e  *Engine
	dq *devQueue
}

// Info implements device.Device.
func (q *QueuedDevice) Info() device.Info { return q.dq.dev.Info() }

// Read implements the infallible device path; like faults.Injector, it
// panics if the underlying device faults, because an infallible caller
// has no way to observe the error. During Run an infallible access cannot
// suspend, so it is also a panic; fault-aware code uses device.ReadErr,
// which every kernel path does.
func (q *QueuedDevice) Read(c *simclock.Clock, off, length int64) {
	if q.e.running {
		panic("iosched: infallible Read on a queued device during Run; use a fallible access")
	}
	if err := q.ReadErr(c, off, length); err != nil {
		panic(fmt.Sprintf("iosched: infallible Read on a faulted device: %v", err))
	}
}

// Write implements the infallible device path; see Read.
func (q *QueuedDevice) Write(c *simclock.Clock, off, length int64) {
	if q.e.running {
		panic("iosched: infallible Write on a queued device during Run; use a fallible access")
	}
	if err := q.WriteErr(c, off, length); err != nil {
		panic(fmt.Sprintf("iosched: infallible Write on a faulted device: %v", err))
	}
}

// ReadErr implements device.FallibleDevice.
func (q *QueuedDevice) ReadErr(c *simclock.Clock, off, length int64) error {
	if !q.e.running {
		return q.dq.dev.ReadErr(c, off, length)
	}
	return q.e.submit(c, q.dq.id, off, length, false)
}

// WriteErr implements device.FallibleDevice.
func (q *QueuedDevice) WriteErr(c *simclock.Clock, off, length int64) error {
	if !q.e.running {
		return q.dq.dev.WriteErr(c, off, length)
	}
	return q.e.submit(c, q.dq.id, off, length, true)
}

// Reset implements device.Device: the underlying device's mechanical
// state and the queue position history are cleared. Resetting mid-run is
// a programming error.
func (q *QueuedDevice) Reset() {
	if q.e.running {
		panic("iosched: Reset while running")
	}
	q.dq.dev.Reset()
	q.dq.lastPos = 0
	q.dq.inflight = nil
	q.dq.free = 0
	q.dq.cancelledQueued = 0
}
