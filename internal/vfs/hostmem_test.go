package vfs

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"sleds/internal/device"
	"sleds/internal/workload"
)

// arenaMachine is testMachine on a given arena.
func arenaMachine(t testing.TB, hm *HostMem, pageSize, cachePages int) (*Kernel, device.ID) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: pageSize, CachePages: cachePages, MemDevice: mem, HostMem: hm})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	return k, disk
}

// arenaFile creates a generated file and returns it open, with the bytes it
// must hold (read from a twin content that never saw a store).
func arenaFile(t testing.TB, k *Kernel, disk device.ID, path string, gen int, size int64) (*File, []byte) {
	t.Helper()
	ps := k.PageSize()
	want := workload.New(size, ps, patternGen(gen)).ReadAll()
	if _, err := k.Create(path, disk, workload.New(size, ps, patternGen(gen))); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return f, want
}

// scanCheck reads the file front to back passes times in chunk-byte
// requests, checking every byte.
func scanCheck(t testing.TB, what string, f *File, want []byte, chunk, passes int) {
	t.Helper()
	buf := make([]byte, chunk)
	for pass := 0; pass < passes; pass++ {
		for off := 0; off < len(want); off += chunk {
			n, err := f.ReadAt(buf, int64(off))
			if err != nil && err != io.EOF {
				t.Fatalf("%s: pass %d ReadAt(%d): %v", what, pass, off, err)
			}
			if !bytes.Equal(buf[:n], want[off:off+n]) {
				t.Fatalf("%s: pass %d bytes [%d,+%d) differ from the file's content", what, pass, off, n)
			}
		}
	}
}

// TestKernelAfterResetPanics: I/O through a kernel whose arena has been
// Reset — its cache still points at buffers the next kernel owns — panics,
// naming the cause, on a cache hit as on a miss; so do the residency
// queries FSLEDS_GET makes, before and after a new kernel has taken the
// dead one's cache storage over.
func TestKernelAfterResetPanics(t *testing.T) {
	hm := new(HostMem)
	k, disk := arenaMachine(t, hm, modelPage, 4)
	f, want := arenaFile(t, k, disk, "/d/f", 1, 8*modelPage)
	scanCheck(t, "before Reset", f, want, modelPage, 1)
	if len(k.ResidentRuns(f.Inode())) == 0 || k.ResidencyEpoch(f.Inode()) == 0 {
		t.Fatal("the scanned file shows no residency before Reset")
	}
	panics := func(what string, op func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "HostMem was Reset") {
				t.Errorf("%s after Reset: recovered %q, want a panic naming the Reset", what, msg)
			}
		}()
		op()
	}
	hm.Reset()
	for round := 0; round < 2; round++ {
		for _, off := range []int64{7 * modelPage, 0} { // resident, not resident
			panics(fmt.Sprintf("round %d: read at %d", round, off), func() { f.ReadAt(make([]byte, modelPage), off) })
		}
		panics(fmt.Sprintf("round %d: ResidentRuns", round), func() { k.ResidentRuns(f.Inode()) })
		panics(fmt.Sprintf("round %d: ResidencyEpoch", round), func() { k.ResidencyEpoch(f.Inode()) })
		arenaMachine(t, hm, modelPage, 4) // takes the dead kernel's cache storage over
	}
}

// TestContentOutlivesArena: a file's content read after the arena its
// kernel lent it slots from was Reset, and another kernel's file was read
// through the same slots, still reads its own bytes.
func TestContentOutlivesArena(t *testing.T) {
	hm := new(HostMem)
	k, disk := arenaMachine(t, hm, modelPage, 4)
	f, want := arenaFile(t, k, disk, "/d/f", 1, 8*modelPage+9)
	scanCheck(t, "first kernel", f, want, 3*modelPage, 2)
	old := f.Inode().content

	hm.Reset()
	k2, disk2 := arenaMachine(t, hm, modelPage, 4)
	f2, want2 := arenaFile(t, k2, disk2, "/d/g", 2, 8*modelPage+9)
	scanCheck(t, "second kernel", f2, want2, 3*modelPage, 2)

	if got := old.ReadAll(); !bytes.Equal(got, want) {
		t.Fatal("content read after its arena was Reset returned bytes that are not its own")
	}
	scanCheck(t, "second kernel, after the old content was read", f2, want2, 3*modelPage, 1)
}

// TestKernelsShareArena: two kernels alive on one arena, as a point that
// boots a client and a server has them, read interleaved through caches
// too small for their files. A buffer one of them still had in its cache
// turning up in the other's shows as a byte mismatch.
func TestKernelsShareArena(t *testing.T) {
	hm := new(HostMem)
	ka, da := arenaMachine(t, hm, modelPage, 3)
	kb, db := arenaMachine(t, hm, modelPage, 5)
	fa, wantA := arenaFile(t, ka, da, "/d/a", 1, 12*modelPage+5)
	fb, wantB := arenaFile(t, kb, db, "/d/b", 2, 9*modelPage)
	rng := modelRNG(19)
	buf := make([]byte, 2*modelPage)
	for i := 0; i < 2000; i++ {
		f, want := fa, wantA
		if rng.intn(2) == 1 {
			f, want = fb, wantB
		}
		off := rng.intn(int64(len(want)))
		n, err := f.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:n], want[off:off+int64(n)]) {
			t.Fatalf("read %d: bytes [%d,+%d) of a kernel's file are not that file's", i, off, n)
		}
		if i%100 == 99 {
			ka.DropCaches() // hands one kernel's buffers to both
		}
	}
	if made, _, _ := hm.Held(); made > 3+5+2 {
		t.Errorf("arena made %d page buffers for caches of 3 and 5 frames with one page in flight each", made)
	}
}

// TestArenaReuseIsInvisible: the same operations on a fresh arena and on
// one another machine dirtied first — other page size, other cache size,
// other files, written pages — give the same bytes, run stats and virtual
// time.
func TestArenaReuseIsInvisible(t *testing.T) {
	run := func(hm *HostMem) (RunStats, int64, []byte) {
		k, disk := arenaMachine(t, hm, modelPage, 6)
		f, want := arenaFile(t, k, disk, "/d/f", 3, 20*modelPage+11)
		scanCheck(t, "scan", f, want, 4*modelPage, 3)
		if _, err := f.WriteAt([]byte("overwritten in place"), 5*modelPage+3); err != nil {
			t.Fatal(err)
		}
		k.DropCaches()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(len(want))), got); err != nil {
			t.Fatal(err)
		}
		return k.RunStats(), int64(k.Clock.Now()), got
	}
	stats, now, data := run(new(HostMem))

	hm := new(HostMem)
	k, disk := arenaMachine(t, hm, 2*modelPage, 9)
	f, want := arenaFile(t, k, disk, "/d/other", 7, 31*2*modelPage)
	scanCheck(t, "dirtying scan", f, want, 2*modelPage, 2)
	hm.Reset()
	k, disk = arenaMachine(t, hm, modelPage, 11)
	f, want = arenaFile(t, k, disk, "/d/other", 8, 40*modelPage)
	scanCheck(t, "second dirtying scan", f, want, modelPage, 2)
	hm.Reset()

	stats2, now2, data2 := run(hm)
	if stats2 != stats || now2 != now {
		t.Errorf("on a reused arena: stats %+v at %d, on a fresh one %+v at %d", stats2, now2, stats, now)
	}
	if !bytes.Equal(data, data2) {
		t.Error("file bytes differ between a fresh arena and a reused one")
	}
}

// TestArenaSteadyStateAllocatesNothing: once an arena has served one point,
// the page buffers, store slots and cache storage of the next come out of
// it — the misses of a cold scan that fills a new kernel's cache, and a
// warm-up page-in, allocate nothing.
func TestArenaSteadyStateAllocatesNothing(t *testing.T) {
	const pages = 64
	hm := new(HostMem)
	buf := make([]byte, testPage)
	point := func() func() {
		hm.Reset()
		k, disk := arenaMachine(t, hm, testPage, 8)
		if _, err := k.Create("/d/f", disk, workload.NewText(5, pages*testPage, testPage)); err != nil {
			t.Fatal(err)
		}
		f, err := k.Open("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		f.ReadAt(buf, 0) // the file's lease: one bitmap, the slab already there
		return func() {
			for p := int64(1); p < pages; p++ {
				if _, err := f.ReadAt(buf, p*testPage); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.PageInMapped(0, 16*testPage); err != nil {
				t.Fatal(err)
			}
		}
	}
	point()() // the arena grows to what a point needs
	scan := point()
	// One P, as testing.AllocsPerRun measures: MemStats counts every
	// goroutine, and the runtime's own (the GC's mark worker, the
	// scavenger's timers) allocate now and then beside the scan.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	scan() // the first fill of this kernel's cache
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("a scan filling a new kernel's cache on a reused arena allocated %d times, want 0", n)
	}
	if n := testing.AllocsPerRun(1, scan); n != 0 {
		t.Errorf("a scan on a reused arena allocated %v times, want 0", n)
	}
	if bufs, frames, store := hm.Held(); bufs > 8+1 || frames > 8+1 || store != pages*testPage {
		t.Errorf("arena holds %d page buffers, %d frames, %d store bytes; want <= 9, <= 9, %d", bufs, frames, store, pages*testPage)
	}
}

// TestArenaSteadyStateWriteAllocatesNothing: overwriting a file eight
// times the cache's size on a reused arena — every page dirtied, evicted
// and written back to the device — allocates nothing once the file's
// pages have been written once.
func TestArenaSteadyStateWriteAllocatesNothing(t *testing.T) {
	const pages = 64
	hm := new(HostMem)
	page := bytes.Repeat([]byte("w"), testPage)
	point := func() (*Kernel, func()) {
		hm.Reset()
		k, disk := arenaMachine(t, hm, testPage, 8)
		if _, err := k.Create("/d/f", disk, workload.NewText(5, pages*testPage, testPage)); err != nil {
			t.Fatal(err)
		}
		f, err := k.Open("/d/f")
		if err != nil {
			t.Fatal(err)
		}
		overwrite := func() {
			for p := int64(0); p < pages; p++ {
				if _, err := f.WriteAt(page, p*testPage); err != nil {
					t.Fatal(err)
				}
			}
		}
		overwrite() // the file's written pages, lent by the store
		return k, overwrite
	}
	point() // the arena grows to what a point needs
	k, overwrite := point()
	before := k.RunStats().PagesWrittenDev
	if n := testing.AllocsPerRun(1, overwrite); n != 0 {
		t.Errorf("an overwrite on a reused arena allocated %v times, want 0", n)
	}
	if wrote := k.RunStats().PagesWrittenDev - before; wrote < 2*(pages-8) {
		t.Errorf("two overwrites wrote back %d pages, want >= %d", wrote, 2*(pages-8))
	}
}
