package iosched

// Differential tests pinning the flat event-heap engine bit-identical to
// the goroutine reference engine (refengine_test.go) across schedulers,
// workload shapes and fault stacking orders. Each trial builds two
// identical worlds and replays one pseudo-random workload: any difference
// in service order, per-stream finish times, or the Run error is a
// regression in the heap engine.

import (
	"fmt"
	"reflect"
	"testing"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// lcg is a tiny deterministic generator so trials are reproducible from a
// seed without bringing in a rand dependency.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = lcg(uint64(*g)*6364136223846793005 + 1442695040888963407)
	return uint64(*g) >> 33
}

func (g *lcg) intn(n int) int { return int(g.next() % uint64(n)) }

// action is one step of a generated stream: a device read or a sleep.
type action struct {
	sleep simclock.Duration // > 0: sleep instead of reading
	dev   int               // index into the trial's device list
	off   int64
}

// trialSpec is one generated workload: devices with fixed service costs,
// streams with start offsets and action lists, under one scheduler.
type trialSpec struct {
	sched   string
	costs   []simclock.Duration
	starts  []simclock.Duration
	streams [][]action
	faulty  bool // stack a deterministic injector under each queue
	runs    int  // Run calls on the one engine: the second starts where the first ended
}

func genTrial(g *lcg, sched string) trialSpec {
	spec := trialSpec{sched: sched, faulty: g.intn(3) == 0}
	nDev := 1 + g.intn(3)
	for d := 0; d < nDev; d++ {
		spec.costs = append(spec.costs, simclock.Duration(1+g.intn(15))*simclock.Millisecond)
	}
	nStreams := 1 + g.intn(6)
	// Stream starts never enter the heap engine's heap: Run sorts them once
	// and merges the list with the heap. Every shape of start vector goes
	// through that merge here — scattered (non-monotone in stream order,
	// with ties), strictly decreasing (the sort reverses the stream order),
	// and all tied at an instant other streams' wakes and completions land
	// on — and a second Run repeats it from a non-zero base.
	shape := g.intn(3)
	spec.runs = 1 + g.intn(2)
	for s := 0; s < nStreams; s++ {
		start := simclock.Duration(g.intn(6)) * simclock.Millisecond
		switch shape {
		case 1:
			start = simclock.Duration(nStreams-s) * simclock.Millisecond
		case 2:
			start = 3 * simclock.Millisecond
		}
		spec.starts = append(spec.starts, start)
		var acts []action
		for n := 1 + g.intn(8); n > 0; n-- {
			if g.intn(4) == 0 {
				acts = append(acts, action{sleep: simclock.Duration(1+g.intn(20)) * simclock.Millisecond})
			} else {
				acts = append(acts, action{dev: g.intn(nDev), off: int64(g.intn(1<<18)) * 4096})
			}
		}
		spec.streams = append(spec.streams, acts)
	}
	return spec
}

// world is one freshly booted kernel for a trial: fake devices (recording
// service order) behind optional fault injectors.
type world struct {
	k    *vfs.Kernel
	devs []*fakeDev
	ids  []device.ID
}

func buildWorld(t *testing.T, spec trialSpec) world {
	t.Helper()
	k, _, _ := testKernel(t, simclock.Millisecond)
	w := world{k: k}
	for d, cost := range spec.costs {
		fd := &fakeDev{id: device.ID(2 + d), cost: cost}
		id := k.AttachDevice(fd)
		if spec.faulty {
			wrapped, _ := faults.Wrap(k.Devices.Get(id), faults.Config{Seed: 7, PFault: 0.3, MaxConsecutive: 2})
			k.Devices.Replace(id, wrapped)
		}
		w.devs = append(w.devs, fd)
		w.ids = append(w.ids, id)
	}
	return w
}

// outcome is everything a trial compares between engines: per device the
// offsets in service order, and per Run every stream's finish time and the
// Run error.
type outcome struct {
	served   [][]int64
	finishes []simclock.Duration
	errs     []string
}

// runner is the part of an engine a trial drives after set-up.
type runner interface {
	Run() error
	FinishTime(StreamID) simclock.Duration
}

// play calls Run spec.runs times on e — rewind, when set, puts the streams'
// programs back at their first action in between — and collects the
// outcome.
func (w world) play(spec trialSpec, e runner, rewind func()) outcome {
	var o outcome
	for r := 0; r < spec.runs; r++ {
		if rewind != nil {
			rewind()
		}
		err := e.Run()
		for s := range spec.streams {
			o.finishes = append(o.finishes, e.FinishTime(StreamID(s)))
		}
		o.errs = append(o.errs, fmt.Sprint(err))
	}
	for _, fd := range w.devs {
		o.served = append(o.served, fd.served)
	}
	return o
}

// runRef replays the spec on the goroutine reference engine.
func runRef(t *testing.T, spec trialSpec) outcome {
	w := buildWorld(t, spec)
	e := newRefEngine(w.k)
	for _, id := range w.ids {
		e.Queue(id, newRefScheduler(spec.sched))
	}
	for s, acts := range spec.streams {
		acts := acts
		e.AddStream(spec.starts[s], func(h *refHandle) error {
			for _, a := range acts {
				if a.sleep > 0 {
					h.Sleep(a.sleep)
					continue
				}
				id := w.ids[a.dev]
				if err := device.ReadErr(w.k.Devices.Get(id), w.k.Clock, a.off, 4096); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return w.play(spec, e, nil)
}

// runProg replays the spec on the heap engine with Program streams. wrap,
// when set, interposes on each device's scheduler.
func runProg(t *testing.T, spec trialSpec, wrap func(Scheduler) Scheduler) outcome {
	w := buildWorld(t, spec)
	e := NewEngine(w.k)
	for _, id := range w.ids {
		sched := NewScheduler(spec.sched)
		if wrap != nil {
			sched = wrap(sched)
		}
		e.Queue(id, sched)
	}
	next := make([]int, len(spec.streams)) // per stream: its next action
	for s, acts := range spec.streams {
		acts, i := acts, &next[s]
		e.AddStream(spec.starts[s], ProgramFunc(func(h *Handle, prev Result) Op {
			if prev.Err != nil {
				return Exit(prev.Err)
			}
			if *i >= len(acts) {
				return Exit(nil)
			}
			a := acts[*i]
			*i++
			if a.sleep > 0 {
				return Sleep(a.sleep)
			}
			return DevRead(w.ids[a.dev], a.off, 4096)
		}))
	}
	return w.play(spec, e, func() { clear(next) })
}

func TestEngineEquivalence(t *testing.T) {
	for _, sched := range []string{"fcfs", "sstf", "deadline"} {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			for seed := 0; seed < 200; seed++ {
				g := lcg(uint64(seed)*2654435761 + 12345)
				spec := genTrial(&g, sched)
				ref := runRef(t, spec)
				prog := runProg(t, spec, nil)
				if !reflect.DeepEqual(ref, prog) {
					t.Fatalf("seed %d: Program streams diverged from reference\nspec: %+v\nref:  %+v\nheap: %+v",
						seed, spec, ref, prog)
				}
			}
		})
	}
}

// schedOpBytes is the width of one step of a scheduler script, and
// schedScriptSteps bounds the steps a fuzz input runs.
const (
	schedOpBytes     = 4
	schedScriptSteps = 512
)

// schedulerSeeds is FuzzSchedulers' seed corpus: 300 scripts of 40 steps
// drawn from lcg, a third of them adds. One pick in eight also jumps the
// clock by deadlineQuantum, so that requests expire while others are still
// in the future.
func schedulerSeeds() [][]byte {
	var seeds [][]byte
	for seed := 0; seed < 300; seed++ {
		g := lcg(uint64(seed)*40503 + 9)
		in := make([]byte, 0, 40*schedOpBytes)
		for step := 0; step < 40; step++ {
			if g.intn(3) == 0 {
				arr, page := g.intn(20), g.intn(1<<12)
				in = append(in, 0, byte(arr), byte(page>>8), byte(page))
			} else {
				in = append(in, 1, byte(g.intn(10)), byte(g.intn(8)), 0)
			}
		}
		seeds = append(seeds, in)
	}
	return seeds
}

// arrivalLess is the arrival heap's (Arrival, seq) order over requests.
func arrivalLess(a, b *Request) bool {
	return a.Arrival < b.Arrival || (a.Arrival == b.Arrival && a.seq < b.seq)
}

// deadlineBranches counts, over the picks of a script that find an
// eligible request, which way the deadline policy goes: [1][*] the oldest
// has expired, [0][*] SSTF order; [*][1] some queued request has not
// arrived yet, [*][0] every one has.
type deadlineBranches [2][2]int

// note classifies one pick at now over the oracle's queued requests.
func (b *deadlineBranches) note(reqs []*Request, now simclock.Duration) {
	var oldest *Request
	future := 0
	for _, r := range reqs {
		if r.Arrival > now {
			future = 1
		} else if oldest == nil || arrivalLess(r, oldest) {
			oldest = r
		}
	}
	if oldest == nil {
		return
	}
	expired := 0
	if oldest.Arrival+deadlineQuantum <= now {
		expired = 1
	}
	b[expired][future]++
}

// checkSchedScript drives the named scheduler and its linear-scan oracle
// (refengine_test.go) directly, with no engine, through one script, and
// fails on the first pick, Len or MinArrival that differs. Every four
// bytes are one step: b[0]%3 == 0 adds a request arriving b[1]%20 - 5 ms
// after now at page b[2:4] mod 4,096; otherwise now advances b[1]%10 ms,
// and deadlineQuantum more when b[2]%8 == 0, and both schedulers pick.
// Adds arriving after now make the picks that follow take the general-case
// path the indexed fast paths guard against. Under the deadline policy it
// adds the oracle's branch counts to branches.
func checkSchedScript(t *testing.T, name string, in []byte, branches *deadlineBranches) {
	t.Helper()
	fast, slow := NewScheduler(name), newRefScheduler(name)
	var seq uint64
	now := simclock.Duration(0)
	var pos int64
	for step := 0; step < schedScriptSteps && len(in) >= schedOpBytes; step++ {
		b := in[:schedOpBytes]
		in = in[schedOpBytes:]
		if b[0]%3 == 0 {
			arr := now + simclock.Duration(int(b[1]%20)-5)*simclock.Millisecond
			off := int64(int(b[2])<<8|int(b[3])) % (1 << 12) * 4096
			fast.Add(&Request{Off: off, Length: 4096, Arrival: arr, seq: seq})
			slow.Add(&Request{Off: off, Length: 4096, Arrival: arr, seq: seq})
			seq++
		} else {
			now += simclock.Duration(b[1]%10) * simclock.Millisecond
			if b[2]%8 == 0 {
				now += deadlineQuantum
			}
			if d, ok := slow.(*refDeadline); ok {
				branches.note(d.reqs, now)
			}
			rf, rs := fast.Pick(now, pos), slow.Pick(now, pos)
			if (rf == nil) != (rs == nil) {
				t.Fatalf("%s step %d: pick mismatch: fast=%v slow=%v", name, step, rf, rs)
			}
			if rf != nil {
				if rf.seq != rs.seq {
					t.Fatalf("%s step %d: fast picked seq %d, linear picked seq %d", name, step, rf.seq, rs.seq)
				}
				pos = rf.Off + rf.Length
			}
		}
		fa, fok := fast.MinArrival()
		sa, sok := slow.MinArrival()
		if fok != sok || (fok && fa != sa) {
			t.Fatalf("%s step %d: MinArrival mismatch: fast=(%v,%v) slow=(%v,%v)", name, step, fa, fok, sa, sok)
		}
		if fast.Len() != slow.Len() {
			t.Fatalf("%s step %d: Len mismatch: %d vs %d", name, step, fast.Len(), slow.Len())
		}
	}
}

// FuzzSchedulers checks every scheduler against its linear-scan oracle on
// add/pick scripts, including picks at instants that predate some
// arrivals — the general-contract path the engine reaches only when a
// stream's clock runs ahead of the event being processed.
func FuzzSchedulers(f *testing.F) {
	for _, in := range schedulerSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var branches deadlineBranches
		for _, name := range []string{"fcfs", "sstf", "deadline"} {
			checkSchedScript(t, name, in, &branches)
		}
	})
}

// TestIndexedSchedulersMatchLinear runs FuzzSchedulers' seed corpus
// through each scheduler and its linear-scan oracle, one subtest a policy.
func TestIndexedSchedulersMatchLinear(t *testing.T) {
	for _, name := range []string{"fcfs", "sstf", "deadline"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var branches deadlineBranches
			seed := 0
			defer func() {
				if t.Failed() {
					t.Logf("failing seed %d", seed)
				}
			}()
			for i, in := range schedulerSeeds() {
				seed = i
				checkSchedScript(t, name, in, &branches)
			}
		})
	}
}

// TestSchedulerSeedsReachDeadlineBranches holds FuzzSchedulers' seed
// corpus to what makes it a test of the deadline policy: picks that take
// the expired oldest request and picks in SSTF order, each both with and
// without requests still in the future.
func TestSchedulerSeedsReachDeadlineBranches(t *testing.T) {
	var total deadlineBranches
	for _, in := range schedulerSeeds() {
		checkSchedScript(t, "deadline", in, &total)
	}
	for i := range total {
		for j := range total[i] {
			if total[i][j] == 0 {
				t.Errorf("no seed reaches expired=%v future=%v: counts [expired][future] %v", i == 1, j == 1, total)
			}
		}
	}
	t.Logf("deadline picks [expired][future]: %v", total)
}
