package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/quick"

	"sleds/internal/device"
	"sleds/internal/workload"
)

const testPage = 4096

// testMachine builds a kernel with memory + disk + cdrom + nfs devices and
// a small cache.
func testMachine(t testing.TB, cachePages int) (*Kernel, device.ID, device.ID, device.ID) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{
		PageSize:   testPage,
		CachePages: cachePages,
		MemDevice:  mem,
	})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	cdrom := k.AttachDevice(device.NewCDROM(device.DefaultCDROMConfig(2)))
	nfs := k.AttachDevice(device.NewNFS(device.DefaultNFSConfig(3)))
	if err := k.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}
	return k, disk, cdrom, nfs
}

func mustCreateText(t testing.TB, k *Kernel, path string, dev device.ID, seed uint64, size int64) *Inode {
	t.Helper()
	n, err := k.Create(path, dev, workload.NewText(seed, size, testPage))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMkdirLookup(t *testing.T) {
	k, _, _, _ := testMachine(t, 16)
	if err := k.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	n, err := k.Stat("/a/b/c")
	if err != nil || !n.IsDir() {
		t.Fatalf("Stat(/a/b/c) = %v, %v", n, err)
	}
	if _, err := k.Stat("/a/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Stat of missing path: %v", err)
	}
}

func TestPathValidation(t *testing.T) {
	k, _, _, _ := testMachine(t, 16)
	if _, err := k.Stat("relative"); err == nil {
		t.Fatalf("relative path accepted")
	}
	if _, err := k.Stat("/a/../b"); err == nil {
		t.Fatalf("dotdot path accepted")
	}
	if _, err := k.Stat("/"); err != nil {
		t.Fatalf("root Stat failed: %v", err)
	}
}

func TestCreateAndRead(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	content := workload.NewBytes([]byte("hello, simulated world"), testPage)
	if _, err := k.Create("/data/hello", disk, content); err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/data/hello")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64)
	n, err := f.Read(buf)
	if err != io.EOF && err != nil {
		t.Fatalf("Read error: %v", err)
	}
	if string(buf[:n]) != "hello, simulated world" {
		t.Fatalf("Read = %q", buf[:n])
	}
}

func TestCreateErrors(t *testing.T) {
	k, disk, _, _ := testMachine(t, 16)
	mustCreateText(t, k, "/data/f", disk, 1, 100)
	if _, err := k.Create("/data/f", disk, workload.NewText(1, 100, testPage)); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Create: %v", err)
	}
	if _, err := k.Create("/nodir/f", disk, workload.NewText(1, 100, testPage)); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Create in missing dir: %v", err)
	}
	if _, err := k.Create("/data/g", disk, nil); err == nil {
		t.Fatalf("nil content accepted")
	}
	if _, err := k.Create("/data/h", disk, workload.NewText(1, 100, 512)); err == nil {
		t.Fatalf("mismatched page size accepted")
	}
}

func TestOpenDirFails(t *testing.T) {
	k, _, _, _ := testMachine(t, 16)
	if _, err := k.Open("/data"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("Open(dir): %v", err)
	}
}

func TestReadAtAcrossPages(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	n := mustCreateText(t, k, "/data/f", disk, 7, 5*testPage)
	want := n.content.ReadAll()
	f, _ := k.Open("/data/f")
	defer f.Close()
	buf := make([]byte, 3*testPage)
	if _, err := f.ReadAt(buf, testPage/2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want[testPage/2:testPage/2+3*testPage]) {
		t.Fatalf("cross-page ReadAt returned wrong bytes")
	}
}

func TestReadEOFSemantics(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 7, 100)
	f, _ := k.Open("/data/f")
	defer f.Close()
	buf := make([]byte, 200)
	n, err := f.ReadAt(buf, 0)
	if n != 100 || err != io.EOF {
		t.Fatalf("short read = %d,%v; want 100,EOF", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("read at EOF: %v", err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatalf("negative offset accepted")
	}
}

func TestSequentialReadViaSeek(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	n := mustCreateText(t, k, "/data/f", disk, 3, 2*testPage+100)
	want := n.content.ReadAll()
	f, _ := k.Open("/data/f")
	defer f.Close()
	var got []byte
	buf := make([]byte, 1000)
	for {
		n, err := f.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sequential read mismatch: %d vs %d bytes", len(got), len(want))
	}
}

func TestSeekWhence(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 1000)
	f, _ := k.Open("/data/f")
	defer f.Close()
	if pos, _ := f.Seek(10, io.SeekStart); pos != 10 {
		t.Fatalf("SeekStart: %d", pos)
	}
	if pos, _ := f.Seek(5, io.SeekCurrent); pos != 15 {
		t.Fatalf("SeekCurrent: %d", pos)
	}
	if pos, _ := f.Seek(-100, io.SeekEnd); pos != 900 {
		t.Fatalf("SeekEnd: %d", pos)
	}
	if _, err := f.Seek(-10, io.SeekStart); err == nil {
		t.Fatalf("negative seek accepted")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Fatalf("bad whence accepted")
	}
}

func TestClosedFileOps(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 1000)
	f, _ := k.Open("/data/f")
	f.Close()
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := f.Read(make([]byte, 10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, ErrClosed) {
		t.Fatalf("seek after close: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

func TestFaultAccounting(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 10*testPage)
	f, _ := k.Open("/data/f")
	defer f.Close()

	k.ResetRunStats()
	buf := make([]byte, 10*testPage)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	s := k.RunStats()
	if s.Faults != 10 {
		t.Fatalf("cold read faults = %d, want 10", s.Faults)
	}
	if s.CacheHits != 0 {
		t.Fatalf("cold read hits = %d, want 0", s.CacheHits)
	}

	k.ResetRunStats()
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	s = k.RunStats()
	if s.Faults != 0 || s.CacheHits != 10 {
		t.Fatalf("warm read faults=%d hits=%d, want 0/10", s.Faults, s.CacheHits)
	}
}

func TestWarmReadMuchFaster(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 32*testPage)
	f, _ := k.Open("/data/f")
	defer f.Close()
	buf := make([]byte, 32*testPage)

	before := k.Clock.Now()
	f.ReadAt(buf, 0)
	cold := k.Clock.Now() - before

	before = k.Clock.Now()
	f.ReadAt(buf, 0)
	warm := k.Clock.Now() - before

	// Warm reads are bounded by the 48 MB/s memory-copy rate, cold ones
	// by disk positioning + ~10 MB/s transfer: expect >5x here.
	if warm*5 > cold {
		t.Fatalf("warm read %v not >5x faster than cold %v", warm, cold)
	}
}

func TestClusteredFaultIsOneDeviceRequest(t *testing.T) {
	// A single large read over non-resident pages should pay one device
	// positioning cost, not one per page: compare against page-by-page
	// reads with a device reset in between (forcing repositioning).
	k, disk, _, _ := testMachine(t, 256)
	mustCreateText(t, k, "/data/f", disk, 3, 64*testPage)
	f, _ := k.Open("/data/f")
	defer f.Close()

	before := k.Clock.Now()
	buf := make([]byte, 64*testPage)
	f.ReadAt(buf, 0)
	clustered := k.Clock.Now() - before

	k.DropCaches()
	k.ResetDeviceState()
	single := make([]byte, testPage)
	before = k.Clock.Now()
	for i := int64(0); i < 64; i++ {
		f.ReadAt(single, i*testPage)
		k.ResetDeviceState() // force a fresh positioning each request
	}
	scattered := k.Clock.Now() - before

	if clustered*2 > scattered {
		t.Fatalf("clustered %v not much faster than scattered %v", clustered, scattered)
	}
}

func TestLRUPathologyTwoPasses(t *testing.T) {
	// Figure 3 at VFS level: cache of 8 pages, file of 12; two linear
	// passes both fault every page.
	k, disk, _, _ := testMachine(t, 8)
	mustCreateText(t, k, "/data/f", disk, 3, 12*testPage)
	f, _ := k.Open("/data/f")
	defer f.Close()
	buf := make([]byte, testPage)

	pass := func() int64 {
		k.ResetRunStats()
		for i := int64(0); i < 12; i++ {
			f.ReadAt(buf, i*testPage)
		}
		return k.RunStats().Faults
	}
	if got := pass(); got != 12 {
		t.Fatalf("first pass faults = %d, want 12", got)
	}
	if got := pass(); got != 12 {
		t.Fatalf("second pass faults = %d, want 12 (LRU pathology)", got)
	}

	// Tail-first pass exploits the cache: pages 4..11 resident.
	k.ResetRunStats()
	for i := int64(4); i < 12; i++ {
		f.ReadAt(buf, i*testPage)
	}
	for i := int64(0); i < 4; i++ {
		f.ReadAt(buf, i*testPage)
	}
	if got := k.RunStats().Faults; got != 4 {
		t.Fatalf("tail-first pass faults = %d, want 4", got)
	}
}

func TestWriteReadBack(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	if _, err := k.CreateEmpty("/data/out", disk); err != nil {
		t.Fatal(err)
	}
	f, _ := k.Open("/data/out")
	defer f.Close()
	msg := []byte("written through the page cache")
	if n, err := f.WriteAt(msg, 0); n != len(msg) || err != nil {
		t.Fatalf("WriteAt = %d,%v", n, err)
	}
	if f.Size() != int64(len(msg)) {
		t.Fatalf("size after write = %d", f.Size())
	}
	buf := make([]byte, len(msg))
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("read back %q", buf)
	}
}

func TestWriteGrowsAcrossPages(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	k.CreateEmpty("/data/out", disk)
	f, _ := k.Open("/data/out")
	defer f.Close()
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*testPage/16)
	if _, err := f.WriteAt(big, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(big))
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, big) {
		t.Fatalf("multi-page write round trip failed")
	}
}

func TestPartialOverwriteNonResident(t *testing.T) {
	k, disk, _, _ := testMachine(t, 4)
	n := mustCreateText(t, k, "/data/f", disk, 3, 8*testPage)
	orig := n.content.ReadAll()
	f, _ := k.Open("/data/f")
	defer f.Close()
	// Evict everything by reading another file.
	mustCreateText(t, k, "/data/g", disk, 4, 8*testPage)
	g, _ := k.Open("/data/g")
	io.Copy(io.Discard, g)
	g.Close()

	k.ResetRunStats()
	if _, err := f.WriteAt([]byte("XYZ"), 5*testPage+10); err != nil {
		t.Fatal(err)
	}
	if k.RunStats().Faults == 0 {
		t.Fatalf("partial overwrite of evicted page did not fault (read-modify-write)")
	}
	buf := make([]byte, testPage)
	f.ReadAt(buf, 5*testPage)
	want := append([]byte{}, orig[5*testPage:6*testPage]...)
	copy(want[10:], "XYZ")
	if !bytes.Equal(buf, want) {
		t.Fatalf("read-modify-write corrupted page")
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	k, disk, _, _ := testMachine(t, 2)
	k.CreateEmpty("/data/out", disk)
	f, _ := k.Open("/data/out")
	defer f.Close()
	page := bytes.Repeat([]byte{0xAB}, testPage)
	k.ResetRunStats()
	for i := int64(0); i < 6; i++ {
		f.WriteAt(page, i*testPage)
	}
	if got := k.RunStats().PagesWrittenDev; got < 4 {
		t.Fatalf("dirty evictions wrote %d pages to device, want >= 4", got)
	}
	// All data still correct even though most pages were evicted.
	buf := make([]byte, testPage)
	for i := int64(0); i < 6; i++ {
		f.ReadAt(buf, i*testPage)
		if !bytes.Equal(buf, page) {
			t.Fatalf("page %d corrupted after write-back", i)
		}
	}
}

func TestSyncFlushesDirty(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	k.CreateEmpty("/data/out", disk)
	f, _ := k.Open("/data/out")
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{1}, 3*testPage), 0)
	k.ResetRunStats()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := k.RunStats().PagesWrittenDev; got != 3 {
		t.Fatalf("Sync wrote %d pages, want 3", got)
	}
	k.ResetRunStats()
	f.Sync()
	if got := k.RunStats().PagesWrittenDev; got != 0 {
		t.Fatalf("second Sync wrote %d pages, want 0", got)
	}
}

func TestReadOnlyDeviceRejectsWrites(t *testing.T) {
	k, _, cdrom, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/cd", cdrom, 5, testPage)
	f, _ := k.Open("/data/cd")
	defer f.Close()
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write to CD-ROM: %v", err)
	}
	// Reads still work.
	if _, err := f.ReadAt(make([]byte, 16), 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 2*testPage)
	f, _ := k.Open("/data/f")
	io.Copy(io.Discard, f)
	f.Close()
	if err := k.Remove("/data/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat("/data/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("file still present: %v", err)
	}
	if err := k.Remove("/data/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
	if err := k.Remove("/data"); err != nil {
		t.Fatalf("removing empty dir: %v", err)
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 100)
	if err := k.Remove("/data"); err == nil {
		t.Fatalf("removed non-empty directory")
	}
}

func TestReadDirSorted(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		mustCreateText(t, k, "/data/"+name, disk, 3, 100)
	}
	names, err := k.ReadDir("/data")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ReadDir = %v, want %v", names, want)
		}
	}
	if _, err := k.ReadDir("/data/alpha"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir on file: %v", err)
	}
}

func TestWalk(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	k.MkdirAll("/data/sub")
	mustCreateText(t, k, "/data/a", disk, 1, 100)
	mustCreateText(t, k, "/data/sub/b", disk, 2, 100)
	var visited []string
	if err := k.Walk("/data", func(p string, n *Inode) error {
		visited = append(visited, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"/data", "/data/a", "/data/sub", "/data/sub/b"}
	if len(visited) != len(want) {
		t.Fatalf("Walk visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("Walk visited %v, want %v", visited, want)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/a", disk, 1, 100)
	sentinel := errors.New("stop")
	count := 0
	err := k.Walk("/", func(string, *Inode) error {
		count++
		return sentinel
	})
	if !errors.Is(err, sentinel) || count != 1 {
		t.Fatalf("Walk early stop: err=%v count=%d", err, count)
	}
}

func TestPageResident(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	n := mustCreateText(t, k, "/data/f", disk, 3, 4*testPage)
	if k.PageResident(n, 0) {
		t.Fatalf("page resident before any read")
	}
	f, _ := k.Open("/data/f")
	defer f.Close()
	f.ReadAt(make([]byte, 10), 2*testPage)
	if !k.PageResident(n, 2) || k.PageResident(n, 0) {
		t.Fatalf("residency wrong after single-page read")
	}
}

func TestDropCaches(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	n := mustCreateText(t, k, "/data/f", disk, 3, 4*testPage)
	f, _ := k.Open("/data/f")
	defer f.Close()
	io.Copy(io.Discard, f)
	k.DropCaches()
	for p := int64(0); p < 4; p++ {
		if k.PageResident(n, p) {
			t.Fatalf("page %d survived DropCaches", p)
		}
	}
}

func TestTapeFileAllocation(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: testPage, CachePages: 64, MemDevice: mem})
	k.AttachDevice(mem)
	tcfg := device.DefaultTapeLibraryConfig(1)
	tcfg.CartridgeSize = 1 << 20 // 1 MB cartridges for the test
	tape := k.AttachDevice(device.NewTapeLibrary(tcfg))
	k.MkdirAll("/hsm")

	// A file bigger than a cartridge is rejected.
	if _, err := k.Create("/hsm/big", tape, workload.NewText(1, 2<<20, testPage)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized tape file: %v", err)
	}
	// Files pack without crossing cartridge boundaries.
	a, err := k.Create("/hsm/a", tape, workload.NewText(1, 700<<10, testPage))
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Create("/hsm/b", tape, workload.NewText(2, 700<<10, testPage))
	if err != nil {
		t.Fatal(err)
	}
	if a.Extent()/tcfg.CartridgeSize == b.Extent()/tcfg.CartridgeSize {
		t.Fatalf("two 700KB files in one 1MB cartridge")
	}
	// Reading both works and never panics on boundaries.
	for _, path := range []string{"/hsm/a", "/hsm/b"} {
		f, _ := k.Open(path)
		if _, err := io.Copy(io.Discard, f); err != nil {
			t.Fatalf("copy %s: %v", path, err)
		}
		f.Close()
	}
}

// TestNoFileCrossesACartridge drives a tape of 16-page cartridges with
// seeded creates, appends that grow a file in place or relocate it,
// removes, whole-file reads and advice. After every op each file's
// reservation lies in one cartridge, which is what keeps every read of it
// inside one: the read path does not clamp, and the tape panics on a
// crossing.
func TestNoFileCrossesACartridge(t *testing.T) {
	const cartPages = 16
	const cart = cartPages * modelPage
	for trial := uint64(1); trial <= 16; trial++ {
		mem := device.NewMem(device.DefaultMemConfig(0))
		k := NewKernel(Config{PageSize: modelPage, CachePages: 6, ReadaheadPages: 2, MemDevice: mem})
		k.AttachDevice(mem)
		tcfg := device.DefaultTapeLibraryConfig(1)
		tcfg.NumCartridges, tcfg.CartridgeSize = 256, cart
		tape := k.AttachDevice(device.NewTapeLibrary(tcfg))
		if err := k.MkdirAll("/t"); err != nil {
			t.Fatal(err)
		}
		rng := modelRNG(trial)
		var open []*File
		for op := 0; op < 300; op++ {
			what := fmt.Sprintf("trial %d op %d", trial, op)
			var f *File
			if len(open) > 0 {
				f = open[rng.intn(int64(len(open)))]
			}
			var err error
			switch kind := rng.intn(10); {
			case kind < 2 || f == nil: // sizes up to a page past a cartridge
				path := fmt.Sprintf("/t/f%d", op)
				if rng.intn(3) == 0 {
					_, err = k.CreateEmpty(path, tape)
				} else {
					_, err = k.Create(path, tape, workload.New(1+rng.intn(cart+modelPage), modelPage, patternGen(op)))
				}
				if err == nil {
					g, oerr := k.Open(path)
					if oerr != nil {
						t.Fatalf("%s: %v", what, oerr)
					}
					open = append(open, g)
				}
			case kind < 5: // append: in place if last allocated, else relocate
				_, err = f.WriteAt(make([]byte, 1+rng.intn(5*modelPage)), f.Size())
			case kind < 6:
				i := slices.Index(open, f)
				open = slices.Delete(open, i, i+1)
				err = k.Remove("/t/" + f.Inode().Name())
			case kind < 8:
				_, err = io.Copy(io.Discard, io.NewSectionReader(f, 0, f.Size()))
			case kind < 9:
				f.WillNeed(rng.intn(f.Size()+modelPage), 1+rng.intn(2*cart))
			default:
				f.DontNeed(rng.intn(f.Size()+modelPage), 1+rng.intn(2*cart))
			}
			if err != nil && !errors.Is(err, ErrNoSpace) {
				t.Fatalf("%s: %v", what, err)
			}
			for _, n := range k.inodes {
				if n != nil && !n.isDir && n.extent/cart != (n.extent+n.reserved-1)/cart {
					t.Fatalf("%s: %q reserves [%d,%d), across a cartridge", what, n.name, n.extent, n.extent+n.reserved)
				}
			}
		}
	}
}

func TestDeviceFull(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: testPage, CachePages: 16, MemDevice: mem})
	k.AttachDevice(mem)
	dcfg := device.DefaultDiskConfig(1)
	dcfg.Size = 1 << 20
	dcfg.Cylinders = 16
	disk := k.AttachDevice(device.NewDisk(dcfg))
	k.MkdirAll("/d")
	if _, err := k.Create("/d/big", disk, workload.NewText(1, 2<<20, testPage)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overfull create: %v", err)
	}
}

func TestRunStatsBytes(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 10000)
	f, _ := k.Open("/data/f")
	defer f.Close()
	k.ResetRunStats()
	io.Copy(io.Discard, f)
	s := k.RunStats()
	if s.BytesRead != 10000 {
		t.Fatalf("BytesRead = %d, want 10000", s.BytesRead)
	}
	if s.CPUTime <= 0 || s.IOWait <= 0 {
		t.Fatalf("time accounting missing: %+v", s)
	}
}

func TestReadahead(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{PageSize: testPage, CachePages: 64, MemDevice: mem, ReadaheadPages: 4})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	k.MkdirAll("/d")
	n, err := k.Create("/d/f", disk, workload.NewText(1, 16*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := k.Open("/d/f")
	defer f.Close()
	k.ResetRunStats()
	f.ReadAt(make([]byte, 10), 0) // demand: 1 page; readahead: 4 more
	s := k.RunStats()
	if s.Faults != 1 {
		t.Fatalf("faults = %d, want 1", s.Faults)
	}
	if s.ReadaheadPages != 4 {
		t.Fatalf("readahead = %d, want 4", s.ReadaheadPages)
	}
	for p := int64(0); p < 5; p++ {
		if !k.PageResident(n, p) {
			t.Fatalf("page %d not pulled in by readahead", p)
		}
	}
}

// Property: arbitrary interleavings of page-aligned writes and reads via
// the cache always read back what was last written, under a tiny cache
// (maximum eviction pressure).
func TestWriteReadConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		mem := device.NewMem(device.DefaultMemConfig(0))
		k := NewKernel(Config{PageSize: 256, CachePages: 3, MemDevice: mem})
		k.AttachDevice(mem)
		disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
		k.MkdirAll("/d")
		k.CreateEmpty("/d/f", disk)
		file, _ := k.Open("/d/f")
		defer file.Close()

		shadow := make(map[int64]byte) // page -> fill byte
		for _, op := range ops {
			page := int64(op % 8)
			val := byte(op >> 8)
			if op%2 == 0 {
				data := bytes.Repeat([]byte{val}, 256)
				if _, err := file.WriteAt(data, page*256); err != nil {
					return false
				}
				shadow[page] = val
			} else if want, ok := shadow[page]; ok {
				buf := make([]byte, 256)
				if _, err := file.ReadAt(buf, page*256); err != nil && err != io.EOF {
					return false
				}
				for _, b := range buf {
					if b != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: fault counts are bounded by pages touched, and a second
// identical read of a file that fits in cache faults zero times.
func TestFaultBoundsProperty(t *testing.T) {
	f := func(sizeRaw uint8) bool {
		pages := int64(sizeRaw%16) + 1
		k, disk, _, _ := testMachine(t, 32)
		mustCreateText(t, k, "/data/f", disk, uint64(sizeRaw), pages*testPage)
		file, _ := k.Open("/data/f")
		defer file.Close()
		buf := make([]byte, pages*testPage)
		k.ResetRunStats()
		file.ReadAt(buf, 0)
		if k.RunStats().Faults != pages {
			return false
		}
		k.ResetRunStats()
		file.ReadAt(buf, 0)
		return k.RunStats().Faults == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheEvictionKeepsCapacityUnderMixedLoad(t *testing.T) {
	k, disk, _, _ := testMachine(t, 8)
	for i, name := range []string{"a", "b", "c"} {
		mustCreateText(t, k, "/data/"+name, disk, uint64(i), 6*testPage)
	}
	for _, name := range []string{"a", "b", "c", "a", "b"} {
		f, _ := k.Open("/data/" + name)
		io.Copy(io.Discard, f)
		f.Close()
	}
	if got := k.Cache().Len(); got > 8 {
		t.Fatalf("cache grew to %d pages, cap 8", got)
	}
}

func TestWriteAdvancesPosition(t *testing.T) {
	k, disk, _, _ := testMachine(t, 16)
	k.CreateEmpty("/data/out", disk)
	f, _ := k.Open("/data/out")
	defer f.Close()
	if n, err := f.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("Write = %d,%v", n, err)
	}
	if n, err := f.Write([]byte("def")); n != 3 || err != nil {
		t.Fatalf("second Write = %d,%v", n, err)
	}
	buf := make([]byte, 6)
	f.ReadAt(buf, 0)
	if string(buf) != "abcdef" {
		t.Fatalf("sequential writes produced %q", buf)
	}
}

func TestReadAtMappedSkipsCopyCharge(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	mustCreateText(t, k, "/data/f", disk, 3, 8*testPage)
	f, _ := k.Open("/data/f")
	defer f.Close()
	io.Copy(io.Discard, f) // fully cached

	buf := make([]byte, 8*testPage)
	before := k.Clock.Now()
	f.ReadAt(buf, 0)
	viaRead := k.Clock.Now() - before

	before = k.Clock.Now()
	f.ReadAtMapped(buf, 0)
	viaMap := k.Clock.Now() - before

	if viaMap*2 > viaRead {
		t.Fatalf("mapped read (%v) not far cheaper than copied read (%v)", viaMap, viaRead)
	}
	// Both return the same bytes.
	buf2 := make([]byte, 8*testPage)
	f.ReadAtMapped(buf2, 0)
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("mapped read returned different data")
	}
}

func TestSyncAllFlushesEveryFile(t *testing.T) {
	k, disk, _, _ := testMachine(t, 64)
	for _, name := range []string{"a", "b"} {
		k.CreateEmpty("/data/"+name, disk)
		f, _ := k.Open("/data/" + name)
		f.WriteAt(bytes.Repeat([]byte{1}, testPage), 0)
		f.Close()
	}
	k.ResetRunStats()
	k.SyncAll()
	if got := k.RunStats().PagesWrittenDev; got != 2 {
		t.Fatalf("SyncAll wrote %d pages, want 2", got)
	}
}

func TestJitterPerturbsIOTimes(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := NewKernel(Config{
		PageSize: testPage, CachePages: 64, MemDevice: mem,
		JitterSeed: 7, JitterFrac: 0.2,
	})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	k.MkdirAll("/d")
	k.Create("/d/f", disk, workload.NewText(1, 64*testPage, testPage))
	f, _ := k.Open("/d/f")
	defer f.Close()

	// Jitter only ever lengthens (clocks cannot rewind): the jittered
	// run must be >= a deterministic run of the same workload.
	io.Copy(io.Discard, f)
	jittered := k.Clock.Now()

	k2 := NewKernel(Config{PageSize: testPage, CachePages: 64, MemDevice: mem})
	k2.AttachDevice(mem)
	disk2 := k2.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	k2.MkdirAll("/d")
	k2.Create("/d/f", disk2, workload.NewText(1, 64*testPage, testPage))
	f2, _ := k2.Open("/d/f")
	defer f2.Close()
	io.Copy(io.Discard, f2)
	clean := k2.Clock.Now()

	if jittered < clean {
		t.Fatalf("jittered run (%v) shorter than deterministic (%v)", jittered, clean)
	}
	if jittered > clean*12/10 {
		t.Fatalf("jitter added more than 20%%: %v vs %v", jittered, clean)
	}
}

func TestExtentRelocationOnGrowth(t *testing.T) {
	// Growing a file that is NOT the most recent allocation forces a
	// relocation to a fresh extent.
	k, disk, _, _ := testMachine(t, 64)
	k.CreateEmpty("/data/first", disk)
	mustCreateText(t, k, "/data/blocker", disk, 1, 4*testPage) // allocated after
	f, _ := k.Open("/data/first")
	defer f.Close()
	n := f.Inode()
	oldExtent := n.Extent()
	if _, err := f.WriteAt(bytes.Repeat([]byte{7}, 3*testPage), 0); err != nil {
		t.Fatal(err)
	}
	if n.Extent() == oldExtent {
		t.Fatalf("extent did not move despite blocker")
	}
	buf := make([]byte, 3*testPage)
	f.ReadAt(buf, 0)
	for _, b := range buf {
		if b != 7 {
			t.Fatalf("data lost across relocation")
		}
	}
}

func TestInodeAccessors(t *testing.T) {
	k, disk, _, _ := testMachine(t, 16)
	n := mustCreateText(t, k, "/data/f", disk, 3, 1000)
	if n.Ino() == 0 || n.Name() != "f" || n.Size() != 1000 || n.Device() != disk {
		t.Fatalf("accessors wrong: %d %q %d %d", n.Ino(), n.Name(), n.Size(), n.Device())
	}
	f, err := k.OpenInode(n)
	if err != nil {
		t.Fatal(err)
	}
	if f.Inode() != n {
		t.Fatalf("OpenInode lost identity")
	}
	f.Close()
	dir, _ := k.Stat("/data")
	if _, err := k.OpenInode(dir); err == nil {
		t.Fatalf("OpenInode on directory accepted")
	}
	if k.PageSize() != testPage {
		t.Fatalf("PageSize = %d, want %d", k.PageSize(), testPage)
	}
}
