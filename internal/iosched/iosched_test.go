package iosched

import (
	"io"
	"reflect"
	"testing"

	"errors"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// fakeDev is a device with a fixed per-request service cost that records
// the offsets it services, in order.
type fakeDev struct {
	id     device.ID
	cost   simclock.Duration
	served []int64
	resets int
}

func (f *fakeDev) Info() device.Info {
	return device.Info{ID: f.id, Name: "fake", Level: device.LevelDisk, Size: 1 << 40}
}
func (f *fakeDev) Read(c *simclock.Clock, off, length int64) {
	f.served = append(f.served, off)
	c.Advance(f.cost)
}
func (f *fakeDev) Write(c *simclock.Clock, off, length int64) { f.Read(c, off, length) }
func (f *fakeDev) Reset()                                     { f.resets++ }

// testKernel boots a minimal kernel with a fake device attached.
func testKernel(t testing.TB, cost simclock.Duration) (*vfs.Kernel, *fakeDev, device.ID) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: 4096, CachePages: 64, MemDevice: mem})
	k.AttachDevice(mem)
	fd := &fakeDev{id: 1, cost: cost}
	id := k.AttachDevice(fd)
	return k, fd, id
}

// devReadProg is a stream that reads the given offsets on the device one
// after another (4 KiB each) and exits with the first error.
func devReadProg(id device.ID, offs ...int64) Program {
	i := 0
	return ProgramFunc(func(h *Handle, prev Result) Op {
		if prev.Err != nil {
			return Exit(prev.Err)
		}
		if i >= len(offs) {
			return Exit(nil)
		}
		off := offs[i]
		i++
		return DevRead(id, off, 4096)
	})
}

func TestPassthroughOutsideRun(t *testing.T) {
	k, fd, id := testKernel(t, 10*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	k.Devices.Get(id).Read(k.Clock, 123, 4096)
	if got := k.Clock.Now(); got != 10*simclock.Millisecond {
		t.Fatalf("passthrough read advanced clock to %v, want 10ms", got)
	}
	if !reflect.DeepEqual(fd.served, []int64{123}) {
		t.Fatalf("served %v, want [123]", fd.served)
	}
}

func TestFCFSOrderIsArrivalOrder(t *testing.T) {
	k, fd, id := testKernel(t, 10*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	for _, off := range []int64{300, 100, 200} {
		e.AddStream(0, devReadProg(id, off))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int64{300, 100, 200}; !reflect.DeepEqual(fd.served, want) {
		t.Fatalf("FCFS served %v, want %v", fd.served, want)
	}
	// Completions serialize: streams finish 10, 20, 30 ms in.
	for i, want := range []simclock.Duration{10, 20, 30} {
		if got := e.FinishTime(StreamID(i)); got != want*simclock.Millisecond {
			t.Fatalf("stream %d finished at %v, want %dms", i, got, want)
		}
	}
}

func TestSSTFOrderIsNearestFirst(t *testing.T) {
	k, fd, id := testKernel(t, 10*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(id, NewSSTF())
	for _, off := range []int64{300 << 20, 100 << 20, 200 << 20} {
		e.AddStream(0, devReadProg(id, off))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Head starts at 0: nearest-first sweeps 100 MB, 200 MB, 300 MB —
	// the reverse of the FCFS (submission) order.
	if want := []int64{100 << 20, 200 << 20, 300 << 20}; !reflect.DeepEqual(fd.served, want) {
		t.Fatalf("SSTF served %v, want %v", fd.served, want)
	}
}

func TestDeadlineBoundsStarvation(t *testing.T) {
	// Stream A asks for a far offset; stream B keeps the head busy near
	// zero, one 10 ms request after another. Under SSTF, A waits for B to
	// run dry; under deadline, A is served as soon as its expiry passes,
	// after the requests B had served by then.
	const service = 10 * simclock.Millisecond
	run := func(sched Scheduler) []int64 {
		k, fd, id := testKernel(t, service)
		e := NewEngine(k)
		e.Queue(id, sched)
		e.AddStream(0, devReadProg(id, 1<<30))
		near := make([]int64, 2*deadlineQuantum/service)
		for i := range near {
			near[i] = int64(i) * 8192
		}
		e.AddStream(0, devReadProg(id, near...))
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fd.served
	}
	sstf := run(NewSSTF())
	if sstf[len(sstf)-1] != 1<<30 {
		t.Fatalf("SSTF should starve the far request to last, served %v", sstf)
	}
	dl := run(NewDeadline())
	if at := int(deadlineQuantum / service); dl[at] != 1<<30 {
		t.Fatalf("deadline should serve the far request once it expires, at position %d, served %v", at, dl)
	}
}

func TestLoadProviderReportsQueueState(t *testing.T) {
	k, _, id := testKernel(t, 10*simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	for i := 0; i < 3; i++ {
		e.AddStream(0, devReadProg(id, 0))
	}
	type probe struct {
		depth int
		rem   simclock.Duration
	}
	var got probe
	slept := false
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		if !slept {
			slept = true
			return Sleep(5 * simclock.Millisecond)
		}
		got = probe{
			depth: e.QueueDepth(id),
			rem:   e.InFlightRemaining(id, h.Now()),
		}
		return Exit(nil)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At 5ms: one request in flight (5 of 10 ms left), two queued.
	if got.depth != 2 {
		t.Fatalf("queue depth at 5ms = %d, want 2", got.depth)
	}
	if got.rem != 5*simclock.Millisecond {
		t.Fatalf("in-flight remaining at 5ms = %v, want 5ms", got.rem)
	}
	if d := e.QueueDepth(device.ID(99)); d != 0 {
		t.Fatalf("unqueued device depth = %d, want 0", d)
	}
}

func TestStreamErrorAndPanicSurface(t *testing.T) {
	k, _, id := testKernel(t, simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	e.AddStream(0, ProgramFunc(func(h *Handle, prev Result) Op {
		panic("boom")
	}))
	e.AddStream(0, devReadProg(id, 0))
	err := e.Run()
	if err == nil {
		t.Fatal("want error from panicking stream")
	}
	// RunProgram is the same engine: a negative sleep fails the program.
	if err := RunProgram(k, ProgramFunc(func(h *Handle, prev Result) Op {
		return Sleep(-simclock.Millisecond)
	})); err == nil {
		t.Fatal("want error from a negative sleep under RunProgram")
	}
}

// bootFileKernel builds a kernel with a real disk holding one file per
// stream.
func bootFileKernel(t testing.TB, files int, size int64) (*vfs.Kernel, device.ID, []string) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: 4096, CachePages: 256, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := range files {
		path := "/data/f" + string(rune('a'+i))
		c := workload.NewText(uint64(i+1), size, 4096)
		if _, err := k.Create(path, disk, c); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return k, disk, paths
}

// readAll reads a file to EOF in 16 KiB chunks, synchronously.
func readAll(k *vfs.Kernel, path string) error {
	f, err := k.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 16<<10)
	for {
		_, err := f.Read(buf)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readAllProg is readAll as a stream program.
func readAllProg(k *vfs.Kernel, path string) Program {
	var f *vfs.File
	var buf []byte
	return ProgramFunc(func(h *Handle, prev Result) Op {
		if f == nil {
			var err error
			f, err = k.Open(path)
			if err != nil {
				return Exit(err)
			}
			buf = make([]byte, 16<<10)
			return Read(f, buf)
		}
		if prev.Err == io.EOF {
			f.Close()
			return Exit(nil)
		}
		if prev.Err != nil {
			f.Close()
			return Exit(prev.Err)
		}
		return Read(f, buf)
	})
}

func TestSingleStreamMatchesUnqueuedTiming(t *testing.T) {
	const size = 256 << 10
	// Reference: plain sequential read, no engine.
	kRef, _, pathsRef := bootFileKernel(t, 1, size)
	if err := readAll(kRef, pathsRef[0]); err != nil {
		t.Fatal(err)
	}
	want := kRef.Clock.Now()

	// Same reads as the only stream of an engine with a queued disk.
	k, disk, paths := bootFileKernel(t, 1, size)
	e := NewEngine(k)
	e.Queue(disk, NewFCFS())
	e.AddStream(0, readAllProg(k, paths[0]))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Clock.Now(); got != want {
		t.Fatalf("single queued stream elapsed %v, unqueued %v; queueing must be free without contention", got, want)
	}
}

func TestMultiStreamDeterminism(t *testing.T) {
	run := func() []simclock.Duration {
		k, disk, paths := bootFileKernel(t, 4, 128<<10)
		e := NewEngine(k)
		e.Queue(disk, NewSSTF())
		for i := range paths {
			e.AddStream(simclock.Duration(i)*simclock.Millisecond, readAllProg(k, paths[i]))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([]simclock.Duration, len(paths))
		for i := range paths {
			out[i] = e.FinishTime(StreamID(i))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged: %v vs %v", a, b)
	}
	// Contention must be visible: with 4 streams on one disk, the last
	// finisher is later than a lone stream reading one file.
	k, disk, paths := bootFileKernel(t, 1, 128<<10)
	e := NewEngine(k)
	e.Queue(disk, NewFCFS())
	e.AddStream(0, readAllProg(k, paths[0]))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	lone := e.FinishTime(0)
	var last simclock.Duration
	for _, f := range a {
		if f > last {
			last = f
		}
	}
	if last <= lone {
		t.Fatalf("4-stream last finish %v not later than lone stream %v", last, lone)
	}
}

func TestKernelClockRestoredAfterRun(t *testing.T) {
	k, disk, paths := bootFileKernel(t, 2, 64<<10)
	before := k.Clock
	e := NewEngine(k)
	e.Queue(disk, NewFCFS())
	for i := range paths {
		e.AddStream(0, readAllProg(k, paths[i]))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Clock != before {
		t.Fatal("kernel clock not restored to the pre-Run clock object")
	}
	var max simclock.Duration
	for i := range paths {
		if f := e.FinishTime(StreamID(i)); f > max {
			max = f
		}
	}
	if k.Clock.Now() != max {
		t.Fatalf("kernel clock at %v, want max finish %v", k.Clock.Now(), max)
	}
}

func TestSchedulerFactory(t *testing.T) {
	for _, c := range []struct {
		name string
		want Scheduler
	}{{"fcfs", &FCFS{}}, {"sstf", &SSTF{}}, {"deadline", &Deadline{}}} {
		if got := NewScheduler(c.name); reflect.TypeOf(got) != reflect.TypeOf(c.want) {
			t.Fatalf("NewScheduler(%q) is a %T, want %T", c.name, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scheduler name should panic")
		}
	}()
	NewScheduler("nope")
}

// faultCfg is a deterministic "first attempt at an offset fails" config
// for the stacking tests below.
func faultCfg() faults.Config {
	return faults.Config{Seed: 1, PFault: 1, MaxConsecutive: 1}
}

// twoReadsCapturingFirst reads offset 512 twice, saving the first read's
// outcome into *firstErr and exiting with the second's.
func twoReadsCapturingFirst(id device.ID, firstErr *error) Program {
	step := 0
	return ProgramFunc(func(h *Handle, prev Result) Op {
		switch step {
		case 0:
			step = 1
			return DevRead(id, 512, 4096)
		case 1:
			step = 2
			*firstErr = prev.Err
			return DevRead(id, 512, 4096)
		default:
			return Exit(prev.Err)
		}
	})
}

// TestInjectorOverQueuedDevice stacks a fault injector over the engine's
// queue wrapper (Registry.Replace after Queue): faults fire at submission
// time, before the request occupies the device, and a retry rides the
// episode out through the queue.
func TestInjectorOverQueuedDevice(t *testing.T) {
	k, fd, id := testKernel(t, simclock.Millisecond)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())
	wrapped, inj := faults.Wrap(k.Devices.Get(id), faultCfg())
	k.Devices.Replace(id, wrapped)

	var firstErr error
	e.AddStream(0, twoReadsCapturingFirst(id, &firstErr))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var f *device.Fault
	if !errors.As(firstErr, &f) {
		t.Fatalf("first attempt error %v does not carry *device.Fault", firstErr)
	}
	// The faulted submission never reached the raw device; the retry did.
	if !reflect.DeepEqual(fd.served, []int64{512}) {
		t.Fatalf("raw device served %v, want [512]", fd.served)
	}
	if inj.Stats().Faults != 1 {
		t.Fatalf("injector counted %d faults, want 1", inj.Stats().Faults)
	}
}

// TestQueuedDeviceOverInjector stacks the engine's queue wrapper over a
// fault injector (Replace before Queue): faults fire at dispatch time,
// while the request occupies the device, and still propagate to the
// submitting stream.
func TestQueuedDeviceOverInjector(t *testing.T) {
	k, fd, id := testKernel(t, simclock.Millisecond)
	wrapped, inj := faults.Wrap(k.Devices.Get(id), faultCfg())
	k.Devices.Replace(id, wrapped)
	e := NewEngine(k)
	e.Queue(id, NewFCFS())

	var firstErr error
	e.AddStream(0, twoReadsCapturingFirst(id, &firstErr))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var f *device.Fault
	if !errors.As(firstErr, &f) {
		t.Fatalf("dispatch-time fault %v did not propagate as *device.Fault", firstErr)
	}
	if !reflect.DeepEqual(fd.served, []int64{512}) {
		t.Fatalf("raw device served %v, want [512]", fd.served)
	}
	if inj.Stats().Faults != 1 {
		t.Fatalf("injector counted %d faults, want 1", inj.Stats().Faults)
	}
}

// TestResetAllReachesInnermostThroughStack checks contract point 1 of
// Registry.Replace: every wrapper's Reset forwards, so ResetAll reaches
// the raw device under any stacking order and depth.
func TestResetAllReachesInnermostThroughStack(t *testing.T) {
	for _, order := range []string{"injector-over-queue", "queue-over-injector"} {
		k, fd, id := testKernel(t, simclock.Millisecond)
		e := NewEngine(k)
		if order == "injector-over-queue" {
			e.Queue(id, NewFCFS())
			wrapped, _ := faults.Wrap(k.Devices.Get(id), faultCfg())
			k.Devices.Replace(id, wrapped)
		} else {
			wrapped, _ := faults.Wrap(k.Devices.Get(id), faultCfg())
			k.Devices.Replace(id, wrapped)
			e.Queue(id, NewFCFS())
		}
		k.Devices.ResetAll()
		if fd.resets != 1 {
			t.Fatalf("%s: raw device saw %d resets, want 1", order, fd.resets)
		}
	}
}
