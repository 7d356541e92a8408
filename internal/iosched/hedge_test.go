package iosched

import (
	"errors"
	"reflect"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// testKernel2 boots a kernel with two fake devices of the given costs.
func testKernel2(t testing.TB, costA, costB simclock.Duration) (*vfs.Kernel, *fakeDev, *fakeDev, device.ID, device.ID) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: 4096, CachePages: 64, MemDevice: mem})
	k.AttachDevice(mem)
	fa := &fakeDev{id: 1, cost: costA}
	ida := k.AttachDevice(fa)
	fb := &fakeDev{id: 2, cost: costB}
	idb := k.AttachDevice(fb)
	return k, fa, fb, ida, idb
}

// hedgeOnce runs one hedged read and captures its Result.
func hedgeOnce(primary, secondary device.ID, delay simclock.Duration, out *Result) Program {
	issued := false
	return ProgramFunc(func(h *Handle, prev Result) Op {
		if issued {
			*out = prev
			return Exit(prev.Err)
		}
		issued = true
		return HedgedDevReadAt(primary, 0, secondary, 0, 4096, delay)
	})
}

func TestHedgeFiresAndSecondaryWins(t *testing.T) {
	k, fa, fb, ida, idb := testKernel2(t, 100*simclock.Millisecond, 10*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, 20*simclock.Millisecond, &res))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Primary dispatched at 0, would complete at 100 ms. Hedge fires at
	// 20 ms, the secondary completes at 30 ms and wins.
	if !res.HedgeFired {
		t.Fatal("hedge did not fire against a 100ms primary with a 20ms deadline")
	}
	if res.Dev != idb {
		t.Fatalf("winner %v, want secondary %v", res.Dev, idb)
	}
	if res.Err != nil {
		t.Fatalf("hedged read failed: %v", res.Err)
	}
	if got, want := e.FinishTime(0), 30*simclock.Millisecond; got != want {
		t.Fatalf("stream finished at %v, want %v", got, want)
	}
	// Both devices serviced the read: the in-flight primary cannot be
	// recalled, it completes unclaimed at 100 ms.
	if len(fa.served) != 1 || len(fb.served) != 1 {
		t.Fatalf("served primary=%v secondary=%v, want one read each", fa.served, fb.served)
	}
}

func TestHedgeDoesNotFireWhenPrimaryFast(t *testing.T) {
	k, _, fb, ida, idb := testKernel2(t, 10*simclock.Millisecond, 10*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, 20*simclock.Millisecond, &res))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res.HedgeFired {
		t.Fatal("hedge fired although the primary beat the deadline")
	}
	if res.Dev != ida {
		t.Fatalf("winner %v, want primary %v", res.Dev, ida)
	}
	if got, want := e.FinishTime(0), 10*simclock.Millisecond; got != want {
		t.Fatalf("stream finished at %v, want %v", got, want)
	}
	if len(fb.served) != 0 {
		t.Fatalf("secondary serviced %v, want nothing", fb.served)
	}
}

// TestHedgeQueuedLoserIsDropped parks the secondary behind another
// stream's long request: when the primary wins, the queued loser must be
// dropped without ever occupying the secondary device.
func TestHedgeQueuedLoserIsDropped(t *testing.T) {
	k, _, fb, ida, idb := testKernel2(t, 30*simclock.Millisecond, 50*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	// Stream 0 occupies the secondary from 0 to 50 ms.
	e.AddStream(0, devReadProg(idb, 9000))
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, 10*simclock.Millisecond, &res))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Hedge fires at 10 ms and queues behind the busy secondary; the
	// primary completes at 30 ms and wins; the loser is dropped when the
	// secondary frees at 50 ms.
	if !res.HedgeFired || res.Dev != ida {
		t.Fatalf("res = %+v, want primary win with hedge fired", res)
	}
	if want := []int64{9000}; !reflect.DeepEqual(fb.served, want) {
		t.Fatalf("secondary served %v, want only the other stream's %v", fb.served, want)
	}
	if depth := e.QueueDepth(idb); depth != 0 {
		t.Fatalf("secondary queue depth %d after run, want 0", depth)
	}
}

// TestHedgeOrphanCompletionCoincidesWithWake lands the abandoned
// primary's completion on the same instant as the stream's later sleep
// wake, exercising the same-stream same-instant event order.
func TestHedgeOrphanCompletionCoincidesWithWake(t *testing.T) {
	k, fa, _, ida, idb := testKernel2(t, 100*simclock.Millisecond, 10*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	phase := 0
	var res Result
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		switch phase {
		case 0:
			phase++
			return HedgedDevReadAt(ida, 0, idb, 0, 4096, 20*simclock.Millisecond)
		case 1:
			phase++
			res = prev
			// Resumed at 30 ms (secondary win); sleep to exactly the
			// orphaned primary's completion at 100 ms.
			return Sleep(70 * simclock.Millisecond)
		default:
			return Exit(prev.Err)
		}
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Dev != idb || !res.HedgeFired {
		t.Fatalf("res = %+v, want secondary win", res)
	}
	if got, want := e.FinishTime(0), 100*simclock.Millisecond; got != want {
		t.Fatalf("stream finished at %v, want %v", got, want)
	}
	if len(fa.served) != 1 {
		t.Fatalf("primary served %v, want the one abandoned read", fa.served)
	}
}

// TestHedgeFaultedWinnerSurfacesError pins the first-completion-wins
// contract: a faulted primary that completes before the deadline resolves
// the hedge with its error — failover stays with the caller.
func TestHedgeFaultedWinnerSurfacesError(t *testing.T) {
	k, _, fb, ida, idb := testKernel2(t, simclock.Millisecond, simclock.Millisecond)
	// Wrap before Queue: a hedged read races the queues themselves, so
	// only an injector under the queue (faulting at dispatch time) can
	// perturb it.
	wrapped, _ := faults.Wrap(k.Devices.Get(ida), faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1})
	k.Devices.Replace(ida, wrapped)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	var res Result
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		if prev != (Result{}) {
			res = prev
			return Exit(nil)
		}
		return HedgedDevReadAt(ida, 0, idb, 0, 4096, simclock.Second)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("faulted primary won the hedge but its error was swallowed")
	}
	if res.Dev != ida || res.HedgeFired {
		t.Fatalf("res = %+v, want faulted primary win before the deadline", res)
	}
	if len(fb.served) != 0 {
		t.Fatalf("secondary serviced %v, want nothing", fb.served)
	}
}

func TestHedgeDeterminism(t *testing.T) {
	run := func() []simclock.Duration {
		k, _, _, ida, idb := testKernel2(t, 40*simclock.Millisecond, 25*simclock.Millisecond)
		e := NewEngine(k)
		e.Queue(ida, NewSSTF())
		e.Queue(idb, NewSSTF())
		for i := 0; i < 6; i++ {
			var res Result
			prim, sec := ida, idb
			if i%2 == 1 {
				prim, sec = idb, ida
			}
			e.AddStream(simclock.Duration(i)*5*simclock.Millisecond,
				hedgeOnce(prim, sec, 15*simclock.Millisecond, &res))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]simclock.Duration, 6)
		for i := range out {
			out[i] = e.FinishTime(StreamID(i))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical hedged runs diverged: %v vs %v", a, b)
	}
}

func TestRunProgramHedgeDegradesToPrimary(t *testing.T) {
	k, fa, fb, ida, idb := testKernel2(t, 10*simclock.Millisecond, simclock.Millisecond)
	var res Result
	if err := RunProgram(k, hedgeOnce(ida, idb, 0, &res)); err != nil {
		t.Fatal(err)
	}
	if res.Dev != ida || res.HedgeFired {
		t.Fatalf("res = %+v, want plain primary read", res)
	}
	if got, want := k.Clock.Now(), 10*simclock.Millisecond; got != want {
		t.Fatalf("clock at %v, want the primary's %v", got, want)
	}
	if len(fa.served) != 1 || len(fb.served) != 0 {
		t.Fatalf("served primary=%v secondary=%v, want primary only", fa.served, fb.served)
	}
}

func TestNegativeHedgeDelayFailsStream(t *testing.T) {
	k, _, _, ida, idb := testKernel2(t, simclock.Millisecond, simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, -simclock.Millisecond, &res))
	if err := e.Run(); err == nil {
		t.Fatal("negative hedge delay did not fail the stream")
	}
}

// TestHedgeSameDeviceBothQueued hedges onto the same device: legal, and
// the loser (queued behind the winner on the same queue) is dropped.
func TestHedgeSameDeviceBothQueued(t *testing.T) {
	k, fa, _, ida, _ := testKernel2(t, 10*simclock.Millisecond, simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	var res Result
	e.AddStream(0, hedgeOnce(ida, ida, simclock.Millisecond, &res))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.HedgeFired || res.Dev != ida {
		t.Fatalf("res = %+v, want fired hedge resolved by the primary", res)
	}
	if len(fa.served) != 1 {
		t.Fatalf("device served %v, want the primary read only", fa.served)
	}
	if got, want := e.FinishTime(0), 10*simclock.Millisecond; got != want {
		t.Fatalf("stream finished at %v, want %v", got, want)
	}
}

// TestOrphanObserverSeesMaskedLoserFault: a faulted primary that loses
// the race completes unclaimed, and the orphan observer — not any stream
// — receives its error at the loser's completion instant.
func TestOrphanObserverSeesMaskedLoserFault(t *testing.T) {
	k, _, _, ida, idb := testKernel2(t, 40*simclock.Millisecond, 5*simclock.Millisecond)
	wrapped, _ := faults.Wrap(k.Devices.Get(ida), faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1})
	k.Devices.Replace(ida, wrapped)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	var devs []device.ID
	var ats []simclock.Duration
	var errs []error
	e.SetOrphanObserver(func(dev device.ID, err error, at simclock.Duration) {
		devs = append(devs, dev)
		ats = append(ats, at)
		errs = append(errs, err)
	})
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, 10*simclock.Millisecond, &res))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The primary faults (transient class, 25 ms) and would complete at
	// 25 ms; the hedge fires at 10 ms and the secondary wins at 15 ms.
	if res.Err != nil || res.Dev != idb || !res.HedgeFired {
		t.Fatalf("res = %+v, want a clean secondary win", res)
	}
	if got, want := e.FinishTime(0), 15*simclock.Millisecond; got != want {
		t.Fatalf("stream finished at %v, want %v", got, want)
	}
	if len(devs) != 1 || devs[0] != ida {
		t.Fatalf("orphan observer saw devices %v, want exactly the primary %v", devs, ida)
	}
	if want := 25 * simclock.Millisecond; ats[0] != want {
		t.Fatalf("orphan fault observed at %v, want the loser's completion %v", ats[0], want)
	}
	var fault *device.Fault
	if !errors.As(errs[0], &fault) || fault.Dev != ida {
		t.Fatalf("orphan error %v, want a device.Fault on %v", errs[0], ida)
	}
}

// TestOrphanObserverIgnoresDroppedLoser: a loser cancelled while still
// queued was never sent to the device, so the observer stays silent even
// though the device would have faulted on it. (A loser that reaches
// dispatch before the race settles is a different case: it really runs,
// and a fault it surfaces then IS reported.)
func TestOrphanObserverIgnoresDroppedLoser(t *testing.T) {
	k, _, fb, ida, idb := testKernel2(t, 12*simclock.Millisecond, 50*simclock.Millisecond)
	wrapped, _ := faults.Wrap(k.Devices.Get(idb), faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1})
	k.Devices.Replace(idb, wrapped)
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewFCFS())
	calls := 0
	e.SetOrphanObserver(func(device.ID, error, simclock.Duration) { calls++ })
	// Stream 0's read occupies the faulty secondary until its injected
	// fault completes at 25 ms (surfaced to stream 0, not the observer).
	// The hedge fires at 10 ms and queues the loser behind it; the
	// primary wins at 12 ms, so the loser is cancelled before the
	// secondary ever frees and is dropped at its dispatch, unserviced.
	e.AddStream(0, devReadProg(idb, 9000))
	var res Result
	e.AddStream(0, hedgeOnce(ida, idb, 10*simclock.Millisecond, &res))
	if err := e.Run(); err == nil {
		t.Fatal("stream 0 should surface the injected secondary fault")
	}
	if !res.HedgeFired || res.Dev != ida || res.Err != nil {
		t.Fatalf("res = %+v, want a primary win over the dropped loser", res)
	}
	if calls != 0 {
		t.Fatalf("orphan observer fired %d times for a never-dispatched loser", calls)
	}
	if len(fb.served) != 0 {
		t.Fatalf("secondary serviced %v, want nothing (fault pre-empts the access)", fb.served)
	}
}
