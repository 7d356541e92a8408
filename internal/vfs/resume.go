package vfs

import (
	"errors"
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
)

// The resumable I/O core. The kernel's blocking path — a read faulting a
// page in from a device, with retries, jitter and write-back of evicted
// dirty pages — is written once, as a state machine: every device access
// is a potential suspension point. A device wrapper that cannot complete
// an access synchronously (internal/iosched's QueuedDevice during an
// engine run) registers the request with its engine and returns
// ErrBlocked; the in-progress operation, one pageOp struct, is then parked
// in an IOStep, and the engine resumes it with the dispatch outcome when
// the device completes the request.
//
// Synchronous callers (everything outside an engine run) run the same
// methods to completion in one call: an unqueued device never returns
// ErrBlocked, so the operation lives and dies on the caller's stack. One
// implementation, two drivers — which is what keeps engine and non-engine
// schedules bit-identical.
//
// Each level of the machine (access, write-back drain, insert, fault,
// read/write loop) is a method taking (resumed, accErr): resumed false
// enters from the top; resumed true re-enters at the one place the level
// can suspend — always a device access further down — with that access's
// final outcome in accErr, and finds its loop variables in the struct.

// ErrBlocked is the sentinel a queued-device wrapper returns from
// ReadErr/WriteErr when it has enqueued the access with its engine instead
// of completing it. It never escapes to applications: the resumable layer
// converts it into a suspended IOStep, and the engine feeds the real
// outcome back in via Resume.
var ErrBlocked = errors.New("vfs: I/O suspended on a queued device")

// IOStep is the state of one resumable kernel I/O operation: either a
// final result (N bytes, Err) or a suspension waiting on a device request
// whose outcome resumes the parked operation.
type IOStep struct {
	op  resumable // non-nil while suspended
	n   int64
	err error
}

// resumable is a parked operation: resume receives the device request's
// outcome and runs to the next suspension or to completion.
type resumable interface {
	resume(devErr error) IOStep
}

// contFunc is the resumable behind BlockedStep.
type contFunc func(devErr error) IOStep

func (c contFunc) resume(devErr error) IOStep { return c(devErr) }

// ioDone builds a completed step.
func ioDone(n int64, err error) IOStep { return IOStep{n: n, err: err} }

// DoneStep builds a completed step carrying a final result (the engine
// uses it to wrap raw device accesses as one-shot steps).
func DoneStep(n int64, err error) IOStep { return ioDone(n, err) }

// BlockedStep builds a suspended step from a continuation that receives
// the device request's outcome.
func BlockedStep(cont func(devErr error) IOStep) IOStep {
	return IOStep{op: contFunc(cont)}
}

// Blocked reports whether the operation is suspended on a device request.
func (s IOStep) Blocked() bool { return s.op != nil }

// Resume feeds the completed device request's outcome (nil, a *device.Fault
// from an injector below the queue, or any other device error) into the
// suspended operation and runs it to its next suspension or completion.
// A suspended step is resumed once: the kernel reuses the operation's
// record after it completes, so the step and any copy of it are spent, and
// a further suspension comes back as a new step.
func (s IOStep) Resume(devErr error) IOStep {
	if s.op == nil {
		panic("vfs: Resume on a completed IOStep")
	}
	return s.op.resume(devErr)
}

// N returns the byte count of a completed step.
func (s IOStep) N() int64 { return s.n }

// Err returns the error of a completed step.
func (s IOStep) Err() error { return s.err }

// mustComplete unwraps a step that is required to have completed: the
// synchronous API surface.
func mustComplete(s IOStep, what string) (int64, error) {
	mustNotBlock(s.Blocked(), what)
	return s.n, s.err
}

// mustNotBlock panics when a synchronous kernel path suspended. That means
// blocking I/O was issued against an engine-queued device from outside the
// engine's op loop (for example File.Sync inside a running stream), which
// the flat engine cannot service.
func mustNotBlock(blocked bool, what string) {
	if blocked {
		panic("vfs: " + what + " blocked on a queued device outside the iosched engine op loop")
	}
}

// The kernel's retry policy on the fallible device path, in virtual time:
// a request gets retryAttempts attempts, the first included, and waits
// retryBackoff before the second, doubled before each one after. The
// longest wait is 80 ms. A faults.Injector episode is at most
// MaxConsecutive faults long, so one with MaxConsecutive < retryAttempts
// is always ridden out, and one with MaxConsecutive >= retryAttempts can
// surface EIO.
const (
	retryAttempts = 5
	retryBackoff  = 10 * simclock.Millisecond
)

// access is one logical device access under the kernel's retry policy:
// what to issue, and how far the policy has got.
type access struct {
	dev         device.ID
	staged      *Inode // non-nil: fetch through the stager on this file's behalf
	off, length int64
	write       bool
	// charged accounts the elapsed virtual time (queueing, service,
	// retries and backoff included), jitter-perturbed, as I/O wait when the
	// access completes. Prefetch's background accesses are not charged.
	charged bool

	attempt int
	before  simclock.Duration
}

// runAccess runs the access until it completes or suspends: each attempt
// is issued (ErrBlocked from a queued device suspends it), faults are
// counted, observed and retried after exponential backoff, and when
// the policy gives up the access fails with a wrapped ErrIO. Non-fault
// errors pass through untouched. Resumed, err is the outcome of the
// attempt that suspended.
func (k *Kernel) runAccess(a *access, resumed bool, err error) (blocked bool, _ error) {
	if !resumed {
		a.attempt = 0
		a.before = k.Clock.Now()
	}
	for {
		if !resumed {
			a.attempt++
			switch {
			case a.write:
				err = k.Devices.Handle(a.dev).WriteErr(k.Clock, a.off, a.length)
			case a.staged != nil:
				err = k.stager.Fetch(a.staged, a.off, a.length)
			default:
				err = k.Devices.Handle(a.dev).ReadErr(k.Clock, a.off, a.length)
			}
			if errors.Is(err, ErrBlocked) {
				return true, nil
			}
		}
		resumed = false
		if err == nil {
			break
		}
		var f *device.Fault
		if !errors.As(err, &f) {
			break
		}
		k.stats.DeviceFaults++
		if k.faultObs != nil {
			k.faultObs(f)
		}
		if a.attempt >= retryAttempts {
			k.stats.EIOs++
			err = fmt.Errorf("vfs: device %d (%s fault, %d attempt(s)): %w", f.Dev, f.Class, a.attempt, ErrIO)
			break
		}
		back := retryBackoff << (a.attempt - 1)
		k.Clock.Advance(back)
		k.stats.Retries++
		k.stats.RetryWait += back
	}
	if a.charged {
		dt := k.Clock.Now() - a.before
		if k.jitter != nil && dt > 0 {
			if perturbed := k.jitter.Perturb(dt); perturbed > dt {
				k.Clock.Advance(perturbed - dt)
				dt = perturbed
			}
		}
		k.stats.IOWait += dt
	}
	return false, err
}

// deviceAccess runs one uncharged access synchronously: the retry policy
// alone, for prefetch's background timeline and a stager's own accesses.
func (k *Kernel) deviceAccess(a access) error {
	blocked, err := k.runAccess(&a, false, nil)
	mustNotBlock(blocked, "device access")
	return err
}

// Access runs one uncharged n-byte access at off on dev under the retry
// policy: a stager's device reads and writes within a Fetch.
func (k *Kernel) Access(dev device.ID, off, n int64, write bool) error {
	return k.deviceAccess(access{dev: dev, off: off, length: n, write: write})
}

// wbItem is one dirty page waiting to be written back after eviction.
type wbItem struct {
	ino  *Inode
	page int64
	data []byte
}

// popWriteback takes the oldest queued write-back. The queue is consumed
// by index and rewound once empty, so its backing array is reused and a
// popped slot does not keep its page buffer reachable.
func (k *Kernel) popWriteback() (wbItem, bool) {
	if k.wbHead == len(k.wb) {
		return wbItem{}, false
	}
	item := k.wb[k.wbHead]
	k.wb[k.wbHead] = wbItem{}
	k.wbHead++
	if k.wbHead == len(k.wb) {
		k.wb, k.wbHead = k.wb[:0], 0
	}
	return item, true
}

// insertion is a page on its way into the cache.
type insertion struct {
	key   cache.Key
	data  []byte
	dirty bool
}

// phase names the suspension point a parked pageOp re-enters.
type phase uint8

const (
	phIdle   phase = iota // between pages: nothing in flight
	phFault               // the cluster's device read is in flight
	phFill                // a write-back is in flight under the insert of cluster page q
	phInsert              // a write-back is in flight under the insert of an overwritten page
)

// pageOp is the whole state of one kernel I/O operation: a read or write
// of p at off, or (with f nil) a kernel-internal insert, write-back drain
// or page write that borrows the lower levels. It starts on its caller's
// stack and moves to a parked record only if it suspends; the record goes
// back to the kernel when the operation completes.
type pageOp struct {
	k *Kernel
	f *File

	p          []byte // nil for a page-in
	req        int64  // read: bytes requested, len(p) but for a page-in
	off        int64
	want, got  int64
	write      bool
	chargeCopy bool // read: charge the cache-to-user copy
	cursor     bool // advance f.pos by the result on completion

	phase phase

	// The page the loop is on: n bytes at inPage.
	page, inPage, n int64
	// The cluster being faulted in: pages [page, page+cluster) of which
	// the request demanded wantPages; q is the next to insert.
	cluster, wantPages, q int64

	ins insertion // the page being inserted
	acc access    // the device access in flight
}

// start runs a fresh operation from its caller's stack; only an operation
// that suspends is copied, into a parked record the kernel reuses.
func (o *pageOp) start() IOStep {
	k := o.k
	k.hostMem() // a kernel whose arena was Reset serves nothing, hits included
	blocked, n, err := o.run(false, nil)
	if !blocked {
		return ioDone(n, err)
	}
	var parked *pageOp
	if last := len(k.parked) - 1; last >= 0 {
		parked, k.parked = k.parked[last], k.parked[:last]
	} else {
		parked = new(pageOp)
	}
	*parked = *o
	return IOStep{op: parked}
}

// resume feeds the outcome of the suspended device request to the access
// in flight, and once the access is over re-enters the operation. A
// finished operation's record is zeroed, so it holds no buffer or file,
// and returned to the kernel for the next suspension.
func (o *pageOp) resume(devErr error) IOStep {
	var n int64
	blocked, err := o.k.runAccess(&o.acc, true, devErr)
	if !blocked {
		blocked, n, err = o.run(true, err)
	}
	if blocked {
		return IOStep{op: o}
	}
	k := o.k
	*o = pageOp{}
	k.parked = append(k.parked, o)
	return ioDone(n, err)
}

// run is the read or write loop, entered fresh or resumed.
func (o *pageOp) run(resumed bool, accErr error) (blocked bool, n int64, err error) {
	if o.write {
		blocked, n, err = o.writeLoop(resumed, accErr)
	} else {
		blocked, n, err = o.readLoop(resumed, accErr)
	}
	if !blocked && o.cursor {
		o.f.pos += n
	}
	return blocked, n, err
}

// writePage stores page data into the inode's content and starts the
// charged device write. The caller accounts the outcome with wrotePage once
// the access is over.
func (o *pageOp) writePage(ino *Inode, page int64, data []byte) (blocked bool, err error) {
	k := o.k
	ino.content.WritePage(page, data)
	o.acc = access{
		dev:     ino.dev,
		off:     ino.extent + page*int64(k.cfg.PageSize),
		length:  int64(len(data)),
		write:   true,
		charged: true,
	}
	return k.runAccess(&o.acc, false, nil)
}

// wrotePage accounts a finished page write.
func (k *Kernel) wrotePage(err error) {
	if err != nil {
		k.stats.WritebackEIOs++
	} else {
		k.stats.PagesWrittenDev++
	}
}

// writePageToDevice is fsync's synchronous page write, outcome accounted
// and returned; the page stays resident, so its buffer stays the cache's.
func (k *Kernel) writePageToDevice(ino *Inode, page int64, data []byte) error {
	o := pageOp{k: k}
	blocked, err := o.writePage(ino, page, data)
	mustNotBlock(blocked, "page write-back")
	k.wrotePage(err)
	return err
}

// drain writes back every queued evicted dirty page. Eviction is
// asynchronous write-back — failures are accounted in WritebackEIOs and
// otherwise dropped. A page's buffer is recycled as soon as writePage has
// copied it into the file's content: the device write needs only its
// length.
func (o *pageOp) drain(resumed bool, accErr error) (blocked bool) {
	k := o.k
	for {
		if !resumed {
			item, ok := k.popWriteback()
			if !ok {
				return false
			}
			blocked, accErr = o.writePage(item.ino, item.page, item.data)
			k.hostMem().put(item.data)
			if blocked {
				return true
			}
		}
		resumed = false
		k.wrotePage(accErr)
	}
}

// drainWritebacksSync writes back queued evictions on the synchronous
// paths (invalidation, file removal).
func (k *Kernel) drainWritebacksSync() {
	o := pageOp{k: k}
	mustNotBlock(o.drain(false, nil), "eviction write-back")
}

// insert puts o.ins into the cache, making room first: victims are evicted
// one at a time and their dirty pages written back (suspending as needed)
// before the new page goes in. This preserves the cache state the blocking
// engine exposed mid-write-back — the victim gone, the new page not yet
// resident — so concurrent streams observe identical residency.
func (o *pageOp) insert(resumed bool, accErr error) (blocked bool, err error) {
	k, key := o.k, o.ins.key
	for {
		if !resumed {
			// Filled, maybe written, by another stream while this fill's
			// read or eviction waited: the resident bytes stand.
			if !o.ins.dirty && k.cache.Contains(key) {
				k.hostMem().put(o.ins.data)
				return false, nil
			}
			if k.cache.Contains(key) || k.cache.Len() < k.cache.Cap() {
				return false, k.cache.Insert(key, o.ins.data, o.ins.dirty)
			}
			if err := k.cache.EvictOne(); err != nil {
				return false, fmt.Errorf("cache: inserting file %d page %d: %w", key.File, key.Page, err)
			}
		}
		if o.drain(resumed, accErr) {
			return true, nil
		}
		resumed = false
	}
}
