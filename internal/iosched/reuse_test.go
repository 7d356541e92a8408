package iosched

// The engine reuses its Request records: a request is released once no one
// will read it again, and the next submission takes the record over. These
// tests pin what that must not change — a blocked I/O allocates nothing,
// a hedge deadline never matches a reused record, and an arrival heap entry
// left behind by a picked request stays dead after its record is reused.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// cycleProg runs n I/Os, cycling PageIn of files[0], DevRead of devs[1],
// PageIn of files[1] and DevRead of devs[0], each at the next page of a
// 128-page window: file i lives on device i.
type cycleProg struct {
	files [2]*vfs.File
	devs  [2]device.ID
	n, i  int
}

func (p *cycleProg) Step(h *Handle, prev Result) Op {
	if prev.Err != nil {
		return Exit(prev.Err)
	}
	if p.i == p.n {
		return Exit(nil)
	}
	off := int64(p.i/4%128) * 4096
	i := p.i
	p.i++
	switch i % 4 {
	case 0:
		return PageIn(p.files[0], off, 4096)
	case 1:
		return DevRead(p.devs[1], off, 4096)
	case 2:
		return PageIn(p.files[1], off, 4096)
	default:
		return DevRead(p.devs[0], off, 4096)
	}
}

// TestBlockedIOAllocatesNothing: on a warm engine, a stream of 2N blocked
// I/Os allocates exactly what a stream of N does. The files are twice the
// cache, so every PageIn misses and suspends on its queued device like
// every DevRead; the Request, the parked page operation and the heaps'
// storage all come back for the next I/O.
func TestBlockedIOAllocatesNothing(t *testing.T) {
	const n = 512
	k, fa, fb, ida, idb := testKernel2(t, simclock.Millisecond, 2*simclock.Millisecond)
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	prog := &cycleProg{devs: [2]device.ID{ida, idb}}
	for i, id := range prog.devs {
		path := fmt.Sprintf("/d/f%d", i)
		if _, err := k.Create(path, id, workload.New(128*4096, 4096, nil)); err != nil {
			t.Fatal(err)
		}
		f, err := k.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		prog.files[i] = f
	}
	e := NewEngine(k)
	e.Queue(ida, NewFCFS())
	e.Queue(idb, NewSSTF())
	e.AddStream(0, prog)
	// One P, as testing.AllocsPerRun measures, so that no other goroutine
	// allocates inside a measured run; and the least of three runs, because
	// the race detector's runtime now and then allocates once on its own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(ios int) uint64 {
		least := ^uint64(0)
		for range 3 {
			fa.served, fb.served = fa.served[:0], fb.served[:0]
			prog.n, prog.i = ios, 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	mallocs(2 * n) // warm: free lists, heaps, page tables and served slices grow
	once := mallocs(n)
	twice := mallocs(2 * n)
	if len(fa.served) != n || len(fb.served) != n {
		t.Fatalf("devices served %d and %d requests, want %d each: the I/Os did not all reach the queues", len(fa.served), len(fb.served), n)
	}
	if twice != once {
		t.Errorf("%d blocked I/Os allocated %d times, %d allocated %d: %d more for %d I/Os, want 0",
			2*n, twice, n, once, int64(twice)-int64(once), n)
	}
}

// recordAdds is a scheduler that notes every request queued through it.
type recordAdds struct {
	Scheduler
	added *[]*Request
}

func (s recordAdds) Add(r *Request) {
	*s.added = append(*s.added, r)
	s.Scheduler.Add(r)
}

// TestStaleHedgeDeadlineIgnoresReusedRecord: hedged read A's primary wins
// at 10 ms, before A's deadline at 20 ms, and the stream at once issues
// hedged read B, whose primary takes over A's record and completes at 35
// ms, before B's own deadline at 40 ms. A's deadline, still on the heap,
// must not fire B's secondary.
func TestStaleHedgeDeadlineIgnoresReusedRecord(t *testing.T) {
	k, _, _, ida, idb := testKernel2(t, 10*simclock.Millisecond, 25*simclock.Millisecond)
	sec := &fakeDev{id: 3, cost: simclock.Millisecond}
	idc := k.AttachDevice(sec)
	var added []*Request
	e := NewEngine(k)
	for _, id := range []device.ID{ida, idb, idc} {
		e.Queue(id, recordAdds{Scheduler: NewFCFS(), added: &added})
	}
	var a, b Result
	step := 0
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		step++
		switch step {
		case 1:
			return HedgedDevReadAt(ida, 0, idc, 0, 4096, 20*simclock.Millisecond)
		case 2:
			a = prev
			return HedgedDevReadAt(idb, 0, idc, 0, 4096, 30*simclock.Millisecond)
		default:
			b = prev
			return Exit(prev.Err)
		}
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a.HedgeFired || a.Dev != ida {
		t.Fatalf("read A = %+v, want its primary to win before the deadline", a)
	}
	if len(added) < 2 || added[0] != added[1] {
		t.Fatal("B's primary is not in A's record: the test needs the reuse")
	}
	if b.HedgeFired || b.Dev != idb {
		t.Errorf("read B = %+v: A's stale deadline fired B's secondary", b)
	}
	if len(sec.served) != 0 {
		t.Errorf("secondary served %v, want nothing", sec.served)
	}
	if got, want := e.FinishTime(0), 35*simclock.Millisecond; got != want {
		t.Errorf("stream finished at %v, want %v", got, want)
	}
}

// staleCounter interposes on an SSTF or Deadline scheduler and counts the
// arrival heap entries of reused records — entries whose request now
// carries another seq — that the scheduler's calls drop. Between calls
// such entries only appear (the engine reuses a record), so the count an
// entry-wise scan loses across a call is what its peeks dropped.
type staleCounter struct {
	Scheduler
	h       *arrivalHeap
	dropped *int
}

func countStale(sched Scheduler, dropped *int) Scheduler {
	var h *arrivalHeap
	switch s := sched.(type) {
	case *SSTF:
		h = &s.h
	case *Deadline:
		h = &s.h
	}
	return staleCounter{Scheduler: sched, h: h, dropped: dropped}
}

func (s staleCounter) reused() int {
	n := 0
	for _, e := range *s.h {
		if e.r.seq != e.seq {
			n++
		}
	}
	return n
}

func (s staleCounter) Pick(now simclock.Duration, pos int64) *Request {
	before := s.reused()
	r := s.Scheduler.Pick(now, pos)
	*s.dropped += before - s.reused()
	return r
}

func (s staleCounter) MinArrival() (simclock.Duration, bool) {
	before := s.reused()
	t, ok := s.Scheduler.MinArrival()
	*s.dropped += before - s.reused()
	return t, ok
}

// genCrowdedTrial is genTrial with 12 to 23 streams of 6 to 13 actions
// each over at most two devices: queues deep enough that a request picked
// out of the middle of its arrival heap completes, and its record is
// queued again, before its dead entry reaches the top.
func genCrowdedTrial(g *lcg, sched string) trialSpec {
	spec := trialSpec{sched: sched, faulty: g.intn(3) == 0, runs: 1}
	for d := 1 + g.intn(2); d > 0; d-- {
		spec.costs = append(spec.costs, simclock.Duration(1+g.intn(8))*simclock.Millisecond)
	}
	for s := 12 + g.intn(12); s > 0; s-- {
		spec.starts = append(spec.starts, simclock.Duration(g.intn(4))*simclock.Millisecond)
		var acts []action
		for n := 6 + g.intn(8); n > 0; n-- {
			if g.intn(6) == 0 {
				acts = append(acts, action{sleep: simclock.Duration(1+g.intn(10)) * simclock.Millisecond})
			} else {
				acts = append(acts, action{dev: g.intn(len(spec.costs)), off: int64(g.intn(1<<18)) * 4096})
			}
		}
		spec.streams = append(spec.streams, acts)
	}
	return spec
}

// TestReuseBehindStaleArrivalEntries runs crowded trials on the heap
// engine and the reference engine under SSTF and Deadline, which delete
// from the arrival heap lazily. The two must agree, and the seeds must
// drop dead entries of reused records, or the test proves nothing about
// reuse.
func TestReuseBehindStaleArrivalEntries(t *testing.T) {
	for _, sched := range []string{"sstf", "deadline"} {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			dropped := 0
			wrap := func(s Scheduler) Scheduler { return countStale(s, &dropped) }
			for seed := 0; seed < 40; seed++ {
				g := lcg(uint64(seed)*40503 + 77)
				spec := genCrowdedTrial(&g, sched)
				ref := runRef(t, spec)
				prog := runProg(t, spec, wrap)
				if !reflect.DeepEqual(ref, prog) {
					t.Fatalf("seed %d: heap engine diverged from reference\nref:  %+v\nheap: %+v", seed, ref, prog)
				}
			}
			if dropped == 0 {
				t.Fatal("no seed dropped an arrival heap entry of a reused record")
			}
			t.Logf("dead entries of reused records dropped: %d", dropped)
		})
	}
}
