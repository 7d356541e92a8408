package iosched

import (
	"errors"
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// A stream is an explicit state machine, not a blocked goroutine: the
// engine repeatedly asks its Program for the next operation (an Op) and
// executes it, feeding the result into the following Step call. Any amount
// of synchronous work — opening files, scanning buffers, charging CPU time
// to the stream's clock — can happen inside Step; only the operations that
// may suspend on a queued device (and sleeps) are expressed as Ops, which
// is what lets one engine thread interleave tens of thousands of streams
// without a stack per stream.

// Result is the outcome of the previous Op, passed to Program.Step. The
// first Step call of a stream receives a zero Result. Dev and HedgeFired
// are set only by HedgedDevReadAt: the device whose completion won the race
// and whether the hedge deadline expired (the secondary was issued) before
// it resolved.
type Result struct {
	N          int
	Err        error
	Dev        device.ID
	HedgeFired bool
}

// Program is one simulated process: Step returns the next operation to
// run. Returning Exit ends the stream.
type Program interface {
	Step(h *Handle, prev Result) Op
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(h *Handle, prev Result) Op

// Step implements Program.
func (f ProgramFunc) Step(h *Handle, prev Result) Op { return f(h, prev) }

// Handle is a stream's interface to its execution context, passed to every
// Step call.
type Handle struct {
	k *vfs.Kernel
}

// Now reports the stream's current virtual time. While a stream executes,
// the kernel's clock is the stream's own clock.
func (h *Handle) Now() simclock.Duration { return h.k.Clock.Now() }

// opKind discriminates Op variants.
type opKind int

const (
	opExit opKind = iota
	opSleep
	opHedge
	// The I/O ops, each of which may suspend on a queued device.
	opRead
	opReadAt
	opPageIn
	opWriteAt
	opDevRead
)

// Op is one operation a Program asks its driver to run: finish the stream,
// sleep in virtual time, perform a (possibly suspending) I/O, or race a
// hedged read across two devices. An Op is plain data — what to do and its
// arguments — so building and returning one allocates nothing.
type Op struct {
	kind opKind
	err  error             // opExit
	dur  simclock.Duration // opSleep: how long; opHedge: the hedge deadline

	// File I/O: the file, the caller's buffer, and (the *At forms) the
	// file offset in off; a page-in has no buffer and its length in length.
	f *vfs.File
	p []byte

	// Raw device I/O: dev and the device extent [off, off+length). A hedge
	// adds the secondary device and its own offset (they differ when the
	// two devices hold replicas of the same data at different extents).
	dev, dev2 device.ID
	off, off2 int64
	length    int64
}

// Exit ends the stream with the given error (nil for success).
func Exit(err error) Op { return Op{kind: opExit, err: err} }

// Sleep suspends the stream for d of virtual time; other streams run
// meanwhile.
func Sleep(d simclock.Duration) Op { return Op{kind: opSleep, dur: d} }

// ReadAt reads len(p) bytes from f at offset off (File.ReadAt as an Op).
func ReadAt(f *vfs.File, p []byte, off int64) Op {
	return Op{kind: opReadAt, f: f, p: p, off: off}
}

// PageIn is File.PageIn as an Op: what ReadAt of n bytes costs, no bytes.
func PageIn(f *vfs.File, off, n int64) Op { return Op{kind: opPageIn, f: f, off: off, length: n} }

// Read reads from f's cursor (File.Read as an Op).
func Read(f *vfs.File, p []byte) Op { return Op{kind: opRead, f: f, p: p} }

// WriteAt writes p to f at offset off (File.WriteAt as an Op).
func WriteAt(f *vfs.File, p []byte, off int64) Op {
	return Op{kind: opWriteAt, f: f, p: p, off: off}
}

// DevRead accesses the device registered under id directly, below the VFS:
// the raw dispatch outcome (a fault injected under the queue, untouched by
// the kernel retry policy) comes back in Result.Err.
func DevRead(id device.ID, off, length int64) Op {
	return Op{kind: opDevRead, dev: id, off: off, length: length}
}

// HedgedDevReadAt is DevRead with a deterministic tail-latency hedge: the
// read of [off, off+length) is submitted to the primary device and a
// virtual-time deadline of delay is armed. If the read has not completed
// when the deadline expires, the same length is read from the secondary
// device at secOff (the two offsets differ when each device holds its own
// copy of the data at its own extent) and the two race; the first
// completion resumes the stream (Result.Dev names the winner,
// Result.HedgeFired reports whether the secondary was issued) and the
// loser is cancelled — dropped from its queue if not yet dispatched, or
// left to finish unclaimed if the device is already servicing it, exactly
// as a real cancellation cannot recall a request the server has started.
// The first completion wins even if it carries a fault: error handling
// (failover, retry) stays with the caller.
//
// Under an Engine both devices should be queued; an unqueued primary
// completes in place with no hedging (as DevRead would), and an unqueued
// secondary leaves the deadline inert. A hedged read is a queue-level
// operation: it races the device queues themselves, so wrappers stacked
// over a queue (an injector Replaced after Queue) are bypassed — faults
// must be injected under the queue to perturb it, where they surface at
// dispatch time in the completion. The deadline uses virtual time only:
// schedules stay byte-identical across runs and worker counts.
func HedgedDevReadAt(primary device.ID, off int64, secondary device.ID, secOff, length int64, delay simclock.Duration) Op {
	return Op{kind: opHedge, dev: primary, off: off, dev2: secondary, off2: secOff, length: length, dur: delay}
}

// start begins an I/O op against the kernel (on whatever clock the kernel
// currently runs): the file operation's resumable step, or a raw device
// access wrapped as one.
func (op *Op) start(k *vfs.Kernel) vfs.IOStep {
	switch op.kind {
	case opRead:
		return op.f.ReadStep(op.p)
	case opReadAt:
		return op.f.ReadAtStep(op.p, op.off)
	case opPageIn:
		return op.f.PageInStep(op.off, op.length)
	case opWriteAt:
		return op.f.WriteAtStep(op.p, op.off)
	case opDevRead:
		return deviceStep(k, op.dev, op.off, op.length)
	default:
		panic(fmt.Sprintf("iosched: op kind %d is not an I/O", op.kind))
	}
}

// deviceStep wraps one raw device read as an IOStep, so queued devices
// can suspend it like any kernel I/O.
func deviceStep(k *vfs.Kernel, id device.ID, off, length int64) vfs.IOStep {
	err := device.ReadErr(k.Devices.Get(id), k.Clock, off, length)
	if errors.Is(err, vfs.ErrBlocked) {
		return vfs.BlockedStep(func(devErr error) vfs.IOStep { return vfs.DoneStep(0, devErr) })
	}
	return vfs.DoneStep(0, err)
}

// RunProgram runs a Program to completion as the one stream of a fresh
// Engine, starting at the kernel's current virtual time. With no queued
// device every Op completes in place, so the program's schedule is the one
// calling the kernel's blocking API directly would give.
func RunProgram(k *vfs.Kernel, prog Program) error {
	e := NewEngine(k)
	e.AddStream(0, prog)
	return e.Run()
}
