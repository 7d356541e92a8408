package remote

import (
	"io"
	"testing"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/lmbench"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

const testPage = 4096

type fixture struct {
	k     *vfs.Kernel
	mount *Mount
	tab   *core.Table
}

func newFixture(t testing.TB, clientCachePages, serverCachePages int) *fixture {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: clientCachePages, MemDevice: mem})
	k.AttachDevice(mem)
	cfg := DefaultConfig()
	cfg.ServerCachePages = serverCachePages
	m, err := NewMount(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.MkdirAll("/net"); err != nil {
		t.Fatal(err)
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{k: k, mount: m, tab: tab}
}

func (fx *fixture) remoteFile(t testing.TB, path string, seed uint64, size int64) *vfs.Inode {
	t.Helper()
	n, err := fx.k.Create(path, fx.mount.Device(), workload.NewText(seed, size, testPage))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: 8, MemDevice: mem})
	k.AttachDevice(mem)
	bad := DefaultConfig()
	bad.ServerCachePages = 0
	if _, err := NewMount(k, bad); err == nil {
		t.Fatal("zero server cache accepted")
	}
}

func TestRemoteDataCorrect(t *testing.T) {
	fx := newFixture(t, 8, 64)
	fx.remoteFile(t, "/net/f", 1, 6*testPage)
	want := workload.NewText(1, 6*testPage, testPage).ReadAll()
	f, _ := fx.k.Open("/net/f")
	defer f.Close()
	got := make([]byte, 6*testPage)
	if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted over the mount", i)
		}
	}
}

func TestServerCacheMakesRereadsCheap(t *testing.T) {
	fx := newFixture(t, 8, 64)
	fx.remoteFile(t, "/net/f", 2, 16*testPage)
	f, _ := fx.k.Open("/net/f")
	defer f.Close()

	before := fx.k.Clock.Now()
	io.Copy(io.Discard, f)
	cold := fx.k.Clock.Now() - before

	// Drop the CLIENT cache only: the server keeps its copy.
	fx.k.DropCaches()
	f.Seek(0, io.SeekStart)
	before = fx.k.Clock.Now()
	io.Copy(io.Discard, f)
	warmServer := fx.k.Clock.Now() - before

	if warmServer*2 > cold {
		t.Fatalf("server-cached re-read (%v) not well below cold (%v)", warmServer, cold)
	}
	if fx.mount.ServerCachedPages() != 16 {
		t.Fatalf("server caches %d pages, want 16", fx.mount.ServerCachedPages())
	}
}

func TestSLEDQuerySeesServerCache(t *testing.T) {
	fx := newFixture(t, 8, 8) // server cache holds half the file
	n := fx.remoteFile(t, "/net/f", 3, 16*testPage)
	f, _ := fx.k.Open("/net/f")
	defer f.Close()
	io.Copy(io.Discard, f) // server now caches the LRU-surviving tail
	fx.k.DropCaches()      // client RAM cold

	sleds, err := core.Query(fx.k, fx.tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(sleds, n.Size()); err != nil {
		t.Fatal(err)
	}
	if len(sleds) != 2 {
		t.Fatalf("want 2 SLEDs (server-disk head, server-cached tail), got %v", sleds)
	}
	if sleds[0].Latency <= sleds[1].Latency {
		t.Fatalf("head (server disk) not slower than tail (server RAM): %v", sleds)
	}
	// The fast level is dominated by the RTT (~0.4 ms), far below the
	// server disk's ~18 ms but far above local memory.
	if sleds[1].Latency < 0.2e-3 || sleds[1].Latency > 2e-3 {
		t.Fatalf("server-cached latency %v, want ~RTT", sleds[1].Latency)
	}
}

func TestThreeLevelQueryWithClientCache(t *testing.T) {
	fx := newFixture(t, 4, 8)
	n := fx.remoteFile(t, "/net/f", 4, 16*testPage)
	f, _ := fx.k.Open("/net/f")
	defer f.Close()
	io.Copy(io.Discard, f)
	// Client holds pages 12..15; server cache holds 8..15.
	sleds, err := core.Query(fx.k, fx.tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(sleds) != 3 {
		t.Fatalf("want 3 levels (server disk / server RAM / client RAM), got %v", sleds)
	}
	if !(sleds[0].Latency > sleds[1].Latency && sleds[1].Latency > sleds[2].Latency) {
		t.Fatalf("latencies not descending toward the tail: %v", sleds)
	}
}

func TestCalibrationSeparatesLevels(t *testing.T) {
	fx := newFixture(t, 8, 64)
	fast, ok := fx.tab.Device(fx.mount.FastDevice())
	if !ok {
		t.Fatal("fast level not calibrated")
	}
	slow, ok := fx.tab.Device(fx.mount.Device())
	if !ok {
		t.Fatal("slow level not calibrated")
	}
	if fast.Latency*5 > slow.Latency {
		t.Fatalf("fast level (%v) not ≪ slow level (%v)", fast.Latency, slow.Latency)
	}
	if fast.Bandwidth <= 0 || slow.Bandwidth <= 0 {
		t.Fatalf("bandwidths not measured")
	}
}

func TestServerCacheEviction(t *testing.T) {
	fx := newFixture(t, 4, 4)
	fx.remoteFile(t, "/net/f", 5, 8*testPage)
	f, _ := fx.k.Open("/net/f")
	defer f.Close()
	io.Copy(io.Discard, f)
	if got := fx.mount.ServerCachedPages(); got != 4 {
		t.Fatalf("server cache holds %d pages, want 4", got)
	}
}

func TestCalibrationDoesNotWarmServerCache(t *testing.T) {
	fx := newFixture(t, 8, 64)
	if got := fx.mount.ServerCachedPages(); got != 0 {
		t.Fatalf("lmbench calibration left %d pages in the server cache", got)
	}
}

func TestWriteBackGoesToServer(t *testing.T) {
	fx := newFixture(t, 64, 64)
	if _, err := fx.k.CreateEmpty("/net/out", fx.mount.Device()); err != nil {
		t.Fatal(err)
	}
	f, _ := fx.k.Open("/net/out")
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 2*testPage), 0); err != nil {
		t.Fatal(err)
	}
	before := fx.k.Clock.Now()
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if cost := fx.k.Clock.Now() - before; cost < RTT {
		t.Fatalf("remote sync cost %v below one RTT", cost)
	}
}

func TestRemoteReorderGain(t *testing.T) {
	// The end-to-end payoff: grep-style tail-first reading over the
	// mount when the server caches the tail.
	fx := newFixture(t, 4, 8)
	fx.remoteFile(t, "/net/f", 6, 16*testPage)
	f, _ := fx.k.Open("/net/f")
	defer f.Close()
	io.Copy(io.Discard, f)
	fx.k.DropCaches()
	fx.k.ResetDeviceState()

	// Tail-first (what a SLEDs picker would order): pages 8..15 are in
	// the server cache. One request per region, as a 32 KiB-buffered
	// reader would issue.
	before := fx.k.Clock.Now()
	buf := make([]byte, 8*testPage)
	f.ReadAt(buf, 8*testPage)
	tailCost := fx.k.Clock.Now() - before

	before = fx.k.Clock.Now()
	f.ReadAt(buf, 0)
	headCost := fx.k.Clock.Now() - before

	// Both regions pay the same wire transfer; the gap is the server's
	// disk positioning, so expect at least 2x.
	if tailCost*2 > headCost {
		t.Fatalf("server-cached tail (%v) not well below disk head (%v)", tailCost, headCost)
	}
}
