package vfs

import (
	"errors"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/workload"
)

// flakyDev is a fallible device with a scripted failure count: the first
// failFor accesses fault (costing extra each), the rest succeed (costing
// cost). It records the virtual-time instant of every attempt, which is
// what the golden backoff traces check.
type flakyDev struct {
	id       device.ID
	failFor  int
	extra    simclock.Duration
	cost     simclock.Duration
	attempts []simclock.Duration
	seq      int64
}

func (f *flakyDev) Info() device.Info {
	return device.Info{ID: f.id, Name: "flaky", Level: device.LevelDisk, Size: 1 << 40}
}

func (f *flakyDev) ReadErr(c *simclock.Clock, off, length int64) error {
	f.attempts = append(f.attempts, c.Now())
	if f.failFor > 0 {
		f.failFor--
		f.seq++
		c.Advance(f.extra)
		return &device.Fault{Dev: f.id, Class: device.FaultTransient, Extra: f.extra, Seq: f.seq}
	}
	c.Advance(f.cost)
	return nil
}

func (f *flakyDev) WriteErr(c *simclock.Clock, off, length int64) error {
	return f.ReadErr(c, off, length)
}

func (f *flakyDev) Read(c *simclock.Clock, off, length int64) {
	if err := f.ReadErr(c, off, length); err != nil {
		panic(err)
	}
}

func (f *flakyDev) Write(c *simclock.Clock, off, length int64) {
	if err := f.WriteErr(c, off, length); err != nil {
		panic(err)
	}
}

func (f *flakyDev) Reset() {}

// flakyKernel boots a kernel whose only data device is a flakyDev.
func flakyKernel(t *testing.T, failFor int) (*Kernel, *flakyDev, device.ID) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: testPage, CachePages: 64, MemDevice: mem})
	k.AttachDevice(mem)
	fd := &flakyDev{id: 1, failFor: failFor, extra: 5 * simclock.Millisecond, cost: simclock.Millisecond}
	id := k.AttachDevice(fd)
	if err := k.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	return k, fd, id
}

// TestRetryBackoffGoldenTrace pins the exact virtual-time schedule of a
// retried access: four faults, the most a request rides out, and attempt
// k starts after the failed attempts' costs plus the exponential backoff
// 10, 20, 40, 80 ms.
func TestRetryBackoffGoldenTrace(t *testing.T) {
	k, fd, id := flakyKernel(t, 4)
	err := k.deviceAccess(access{dev: id, length: testPage})
	if err != nil {
		t.Fatalf("access with 4 faults failed: %v", err)
	}
	want := []simclock.Duration{0, 15, 40, 85, 170}
	for i := range want {
		want[i] *= simclock.Millisecond
	}
	if len(fd.attempts) != len(want) {
		t.Fatalf("made %d attempts, want %d", len(fd.attempts), len(want))
	}
	for i, at := range fd.attempts {
		if at != want[i] {
			t.Errorf("attempt %d at %v, want %v", i+1, at, want[i])
		}
	}
	if got := k.Clock.Now(); got != 171*simclock.Millisecond {
		t.Errorf("final clock %v, want 171ms", got)
	}
	st := k.RunStats()
	if st.DeviceFaults != 4 || st.Retries != 4 || st.EIOs != 0 {
		t.Errorf("stats faults=%d retries=%d EIOs=%d, want 4/4/0", st.DeviceFaults, st.Retries, st.EIOs)
	}
	if want := 150 * simclock.Millisecond; st.RetryWait != want {
		t.Errorf("retry wait %v, want %v", st.RetryWait, want)
	}
}

// TestRetryExhaustionSurfacesEIO: when the device out-fails the policy,
// the access ends in a wrapped ErrIO after exactly five attempts.
func TestRetryExhaustionSurfacesEIO(t *testing.T) {
	k, fd, id := flakyKernel(t, 5)
	err := k.deviceAccess(access{dev: id, length: testPage})
	if !errors.Is(err, ErrIO) {
		t.Fatalf("exhausted retries returned %v, want wrapped ErrIO", err)
	}
	if len(fd.attempts) != 5 {
		t.Fatalf("made %d attempts, want 5", len(fd.attempts))
	}
	st := k.RunStats()
	if st.DeviceFaults != 5 || st.Retries != 4 || st.EIOs != 1 {
		t.Errorf("stats faults=%d retries=%d EIOs=%d, want 5/4/1", st.DeviceFaults, st.Retries, st.EIOs)
	}
}

// TestReadSurfacesEIOToApplication drives the whole read path: a demand
// page-in on a persistently failing device reaches the application as a
// wrapped ErrIO from File.Read, not a panic.
func TestReadSurfacesEIOToApplication(t *testing.T) {
	k, _, id := flakyKernel(t, 1<<30)
	if _, err := k.Create("/data/f", id, workload.NewText(1, 4*testPage, testPage)); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, testPage)
	_, err = f.Read(buf)
	if !errors.Is(err, ErrIO) {
		t.Fatalf("File.Read on a dead device returned %v, want wrapped ErrIO", err)
	}
	if k.RunStats().EIOs == 0 {
		t.Error("EIO not counted in RunStats")
	}
}

// TestFailedPrefetchIsDropped: a prefetch that out-fails the policy on the
// background timeline inserts nothing and leaves the caller's clock alone,
// but holds the device for its five attempts and four backoffs; a demand
// read then faults the pages in as if no advice had been given.
func TestFailedPrefetchIsDropped(t *testing.T) {
	k, fd, id := flakyKernel(t, 5)
	if _, err := k.Create("/data/f", id, workload.NewText(1, 4*testPage, testPage)); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := k.Clock.Now()
	f.WillNeed(0, 4*testPage)
	if now := k.Clock.Now(); now != before {
		t.Fatalf("WillNeed moved the caller's clock from %v to %v", before, now)
	}
	st := k.RunStats()
	if st.PrefetchIssued != 0 || st.EIOs != 1 || k.cache.Len() != 0 {
		t.Fatalf("issued=%d EIOs=%d resident=%d, want 0/1/0", st.PrefetchIssued, st.EIOs, k.cache.Len())
	}
	if busy, want := k.busyUntil[fd.id], before+5*fd.extra+150*simclock.Millisecond; busy != want {
		t.Fatalf("device busy until %v, want %v", busy, want)
	}
	k.ResetRunStats()
	if _, err := f.ReadAt(make([]byte, 4*testPage), 0); err != nil {
		t.Fatal(err)
	}
	if st := k.RunStats(); st.Faults != 4 || st.PrefetchedPages != 0 {
		t.Fatalf("faults=%d prefetched=%d after a dropped prefetch, want 4/0", st.Faults, st.PrefetchedPages)
	}
}

// TestWritebackEIOCounted: a failed write-back is counted, not surfaced —
// there is no caller to return it to.
func TestWritebackEIOCounted(t *testing.T) {
	k, fd, id := flakyKernel(t, 0) // healthy while writing to cache
	if _, err := k.CreateEmpty("/data/out", id); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/data/out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, testPage), 0); err != nil {
		t.Fatal(err)
	}
	fd.failFor = 1 << 30 // device dies before the flush
	if err := f.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("Sync on a dead device returned %v, want wrapped ErrIO", err)
	}
	st := k.RunStats()
	if st.WritebackEIOs != 1 {
		t.Errorf("writeback EIOs = %d, want 1", st.WritebackEIOs)
	}
}

// TestFaultObserverSeesEveryFault: the observer fires once per failed
// attempt with the fault's own Extra, which is what feeds the sleds
// health state.
func TestFaultObserverSeesEveryFault(t *testing.T) {
	k, fd, id := flakyKernel(t, 3)
	var seen []simclock.Duration
	k.SetFaultObserver(func(f *device.Fault) { seen = append(seen, f.Extra) })
	if err := k.deviceAccess(access{dev: id, length: testPage}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("observer saw %d faults, want 3", len(seen))
	}
	for i, extra := range seen {
		if extra != fd.extra {
			t.Errorf("fault %d extra %v, want %v", i, extra, fd.extra)
		}
	}
}
