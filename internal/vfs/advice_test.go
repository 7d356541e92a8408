package vfs

import (
	"io"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/workload"
)

// adviceMachine boots a kernel with one disk and a cache of cachePages.
func adviceMachine(t testing.TB, cachePages int) (*Kernel, device.ID) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: testPage, CachePages: cachePages, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	return k, disk
}

// adviceFile creates and opens a text file of the given pages on disk.
func adviceFile(t testing.TB, k *Kernel, disk device.ID, pages int64) *File {
	t.Helper()
	if _, err := k.Create("/d/f", disk, workload.NewText(1, pages*testPage, testPage)); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWillNeedEliminatesDemandFaults(t *testing.T) {
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 16)
	defer f.Close()

	k.ResetRunStats()
	f.WillNeed(0, 16*testPage)
	if got := k.RunStats().PrefetchIssued; got != 16 {
		t.Fatalf("PrefetchIssued = %d, want 16", got)
	}
	// Let the background I/O finish by advancing past it with CPU work.
	k.ChargeCPU(10 * simclock.Second)

	k.ResetRunStats()
	buf := make([]byte, 16*testPage)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	s := k.RunStats()
	if s.Faults != 0 {
		t.Fatalf("demand faults = %d after completed prefetch, want 0", s.Faults)
	}
	if s.PrefetchedPages != 16 {
		t.Fatalf("PrefetchedPages = %d, want 16", s.PrefetchedPages)
	}
	if s.PrefetchWaits != 0 {
		t.Fatalf("PrefetchWaits = %d after the I/O had finished, want 0", s.PrefetchWaits)
	}
}

func TestDemandAccessWaitsForInflightPrefetch(t *testing.T) {
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 8)
	defer f.Close()
	f.WillNeed(0, 8*testPage)

	// Touch immediately: the I/O has not completed, so the access waits
	// for the remainder but is still cheaper than a fresh demand fault.
	k.ResetRunStats()
	before := k.Clock.Now()
	f.ReadAt(make([]byte, testPage), 0)
	waited := k.Clock.Now() - before
	s := k.RunStats()
	if s.PrefetchWaits != 1 {
		t.Fatalf("PrefetchWaits = %d, want 1", s.PrefetchWaits)
	}
	if waited <= 0 {
		t.Fatalf("no wait charged for in-flight prefetch")
	}
}

func TestPrefetchOverlapsWithCPU(t *testing.T) {
	// Reader A: demand-reads 32 pages, then computes.
	// Reader B: hints 32 pages, computes (I/O overlaps), then reads.
	// B's total time must be close to max(io, cpu), A's to io + cpu.
	const pages = 32
	cpuWork := 200 * simclock.Millisecond

	k1, d1 := adviceMachine(t, 64)
	f1 := adviceFile(t, k1, d1, pages)
	defer f1.Close()
	start := k1.Clock.Now()
	f1.ReadAt(make([]byte, pages*testPage), 0)
	k1.ChargeCPU(cpuWork)
	serial := k1.Clock.Now() - start

	k2, d2 := adviceMachine(t, 64)
	f2 := adviceFile(t, k2, d2, pages)
	defer f2.Close()
	start = k2.Clock.Now()
	f2.WillNeed(0, pages*testPage)
	k2.ChargeCPU(cpuWork) // compute while the device works
	f2.ReadAt(make([]byte, pages*testPage), 0)
	overlapped := k2.Clock.Now() - start

	if overlapped >= serial {
		t.Fatalf("hinted run (%v) not faster than serial (%v)", overlapped, serial)
	}
	// The overlap hides min(io, cpu); here I/O (~15-20ms of sequential
	// disk) is the smaller term, so most of it must vanish.
	saved := serial - overlapped
	if saved < 10*simclock.Millisecond {
		t.Fatalf("overlap saved only %v; expected the I/O time hidden", saved)
	}
}

func TestPrefetchSkipsResidentPages(t *testing.T) {
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 8)
	defer f.Close()
	f.ReadAt(make([]byte, 4*testPage), 0) // pages 0..3 resident
	k.ResetRunStats()
	f.WillNeed(0, 8*testPage)
	if got := k.RunStats().PrefetchIssued; got != 4 {
		t.Fatalf("PrefetchIssued = %d, want 4 (only the absent tail)", got)
	}
}

func TestDoublePrefetchIsIdempotent(t *testing.T) {
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 8)
	defer f.Close()
	k.ResetRunStats()
	f.WillNeed(0, 8*testPage)
	f.WillNeed(0, 8*testPage)
	if got := k.RunStats().PrefetchIssued; got != 8 {
		t.Fatalf("PrefetchIssued = %d, want 8 (second hint is a no-op)", got)
	}
}

func TestDontNeedReleasesPages(t *testing.T) {
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 8)
	defer f.Close()
	f.ReadAt(make([]byte, 8*testPage), 0)
	f.DontNeed(0, 4*testPage)
	n := f.Inode()
	for p := int64(0); p < 4; p++ {
		if k.PageResident(n, p) {
			t.Fatalf("page %d resident after DontNeed", p)
		}
	}
	for p := int64(4); p < 8; p++ {
		if !k.PageResident(n, p) {
			t.Fatalf("page %d dropped though not advised", p)
		}
	}
}

func TestHintedDataIsCorrect(t *testing.T) {
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 8)
	defer f.Close()
	want := workload.NewText(1, 8*testPage, testPage).ReadAll()
	f.WillNeed(0, 8*testPage)
	got := make([]byte, 8*testPage)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted through prefetch path", i)
		}
	}
}

func TestBadRangesAreNoOps(t *testing.T) {
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 4)
	defer f.Close()
	f.WillNeed(-5, 100)
	f.WillNeed(0, 0)
	f.WillNeed(100*testPage, testPage) // past EOF
	f.DontNeed(-1, 10)
	f.DontNeed(0, -1)
	if got := k.RunStats().PrefetchIssued; got != 0 {
		t.Fatalf("bad ranges issued %d prefetches", got)
	}
}

func TestEvictedPendingPageFaultsNormally(t *testing.T) {
	// Prefetch more than the cache holds: the leading pages are evicted
	// by the trailing ones; touching them later is a plain demand fault.
	k, disk := adviceMachine(t, 4)
	f := adviceFile(t, k, disk, 8)
	defer f.Close()
	f.WillNeed(0, 8*testPage)
	k.ChargeCPU(10 * simclock.Second)
	k.ResetRunStats()
	f.ReadAt(make([]byte, testPage), 0) // page 0 was evicted by pages 4..7
	if got := k.RunStats().Faults; got != 1 {
		t.Fatalf("evicted prefetched page faulted %d times, want 1", got)
	}
}

func TestDontNeedOfHugeRangeStopsAtTheExtent(t *testing.T) {
	// 2^38 pages unclamped; the clamp to the reservation visits 11, and the
	// dirty page the write past EOF left is written back before it goes.
	k, disk := adviceMachine(t, 64)
	f := adviceFile(t, k, disk, 8)
	defer f.Close()
	f.ReadAt(make([]byte, 8*testPage), 0)
	if _, err := f.WriteAt([]byte("tail"), 10*testPage); err != nil {
		t.Fatal(err)
	}
	k.ResetRunStats()
	f.DontNeed(0, 1<<50)
	if n := k.cache.Len(); n != 0 {
		t.Fatalf("%d pages resident after DontNeed of the whole file", n)
	}
	if got := k.RunStats().PagesWrittenDev; got != 1 {
		t.Fatalf("PagesWrittenDev = %d, want 1", got)
	}
}
