package iosched

import (
	"errors"
	"fmt"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// failEvery wraps dev in an injector whose episodes outlast the kernel's
// attempts per request, so every access fails.
func failEvery(dev device.Device) device.Device {
	wrapped, _ := faults.Wrap(dev, faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1 << 20})
	return wrapped
}

// TestQueuedWriteBackFaultsCounted: dirty pages a stream's writes evict
// are written back through the queue, and a queued device that fails
// every write has each failed write-back counted in
// RunStats.WritebackEIOs, not lost.
func TestQueuedWriteBackFaultsCounted(t *testing.T) {
	k, _, id := testKernel(t, simclock.Millisecond)
	k.Devices.Replace(id, failEvery(k.Devices.Get(id)))
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	if _, err := k.CreateEmpty("/f", id); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := make([]byte, k.PageSize())
	const pages = 96 // the cache holds 64
	written := 0
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		if prev.Err != nil || written == pages {
			return Exit(prev.Err)
		}
		written++
		return WriteAt(f, page, int64(written-1)*int64(len(page)))
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st := k.RunStats(); st.WritebackEIOs == 0 {
		t.Fatalf("no failed write-back counted: %+v", st)
	}
}

// TestQueuedReadFaultSurfaces: a stream's read of a file on a queued
// device that fails every attempt suspends at each attempt, and once the
// retries are spent the read's result is an error wrapping vfs.ErrIO.
func TestQueuedReadFaultSurfaces(t *testing.T) {
	k, _, id := testKernel(t, simclock.Millisecond)
	k.Devices.Replace(id, failEvery(k.Devices.Get(id)))
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	if _, err := k.Create("/f", id, workload.NewText(1, 4*int64(k.PageSize()), k.PageSize())); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var res Result
	read := false
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		if read {
			res = prev
			return Exit(nil)
		}
		read = true
		return ReadAt(f, make([]byte, k.PageSize()), 0)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, vfs.ErrIO) {
		t.Fatalf("queued read over a failing device: err = %v, want one wrapping vfs.ErrIO", res.Err)
	}
}

// TestUnqueuedHedgeFaultSurfaces: a hedged read whose primary has no
// queue completes in place, and its device's fault is the stream's
// result.
func TestUnqueuedHedgeFaultSurfaces(t *testing.T) {
	k, _, _, ida, idb := testKernel2(t, simclock.Millisecond, simclock.Millisecond)
	k.Devices.Replace(ida, failEvery(k.Devices.Get(ida)))
	e := NewEngine(k)
	e.Queue(idb, NewFCFS())
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, simclock.Second, &res))
	if err := e.Run(); err == nil {
		t.Fatal("the stream ended without the primary's fault")
	}
	var f *device.Fault
	if !errors.As(res.Err, &f) || res.Dev != ida {
		t.Fatalf("res = %+v, want the unqueued primary's *device.Fault", res)
	}
}

// TestQueuedDeviceOutsideRunPassesFaults: outside Run the queue wrapper is
// transparent, faults included — the fallible accesses return the fault
// below it, and the infallible ones panic rather than lose it.
func TestQueuedDeviceOutsideRunPassesFaults(t *testing.T) {
	k, _, id := testKernel(t, simclock.Millisecond)
	k.Devices.Replace(id, failEvery(k.Devices.Get(id)))
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	q := k.Devices.Get(id)
	for _, c := range []struct {
		name   string
		access func() error
	}{
		{"ReadErr", func() error { return device.ReadErr(q, k.Clock, 0, 4096) }},
		{"WriteErr", func() error { return device.WriteErr(q, k.Clock, 0, 4096) }},
		{"Read", func() error { return panicked(func() { q.Read(k.Clock, 0, 4096) }) }},
		{"Write", func() error { return panicked(func() { q.Write(k.Clock, 0, 4096) }) }},
	} {
		if err := c.access(); err == nil {
			t.Errorf("%s over a failing device reported no fault", c.name)
		}
	}
}

// panicked runs fn and returns what it panicked with as an error, or nil.
func panicked(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	fn()
	return nil
}
