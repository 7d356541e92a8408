package sleds_test

import (
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"sleds"
)

func newSystem(t testing.TB, cfg sleds.Config) *sleds.System {
	t.Helper()
	sys, err := sleds.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// small returns a config with a 64 KiB cache for fast eviction tests.
func small() sleds.Config { return sleds.Config{CacheBytes: 64 << 10} }

func TestDefaultSystemBoots(t *testing.T) {
	sys := newSystem(t, sleds.Config{})
	if sys.Now() <= 0 {
		t.Fatalf("calibration took no virtual time")
	}
	memE, ok := sys.Table().Memory()
	if !ok || memE.Bandwidth <= 0 {
		t.Fatalf("table not calibrated: %+v %v", memE, ok)
	}
	for _, d := range []sleds.StandardDevice{sleds.OnDisk, sleds.OnCDROM, sleds.OnNFS, sleds.OnTape} {
		if _, ok := sys.Table().Device(sys.Device(d)); !ok {
			t.Fatalf("device %d has no table entry", d)
		}
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := sleds.NewSystem(sleds.Config{CacheBytes: 100}); err == nil {
		t.Fatalf("sub-page cache accepted")
	}
}

// TestBadTextFilesAreErrors: bad file geometry or an unknown device from a
// caller is an error, not a panic, and leaves no file behind.
func TestBadTextFilesAreErrors(t *testing.T) {
	sys := newSystem(t, small())
	for _, c := range []struct {
		name   string
		create func(path string) error
	}{
		{"negative size", func(p string) error { return sys.CreateTextFile(p, sleds.OnDisk, 1, -1) }},
		{"no room for a match line", func(p string) error {
			return sys.CreateTextFileWithMatches(p, sleds.OnDisk, 1, 0, "xyzzy", 0)
		}},
		{"overlapping match lines", func(p string) error {
			return sys.CreateTextFileWithMatches(p, sleds.OnDisk, 1, 8<<10, "xyzzy", 100, 120)
		}},
		{"needle wider than a match line", func(p string) error {
			return sys.CreateTextFileWithMatches(p, sleds.OnDisk, 1, 8<<10, strings.Repeat("x", 63), 100)
		}},
		{"text on an unknown device", func(p string) error { return sys.CreateTextFile(p, sleds.StandardDevice(7), 1, 8<<10) }},
		{"image on an unknown device", func(p string) error { return sys.CreateFITSImage(p, sleds.StandardDevice(-1), 1, 16, 16) }},
		{"empty file on an unknown device", func(p string) error { return sys.CreateEmptyFile(p, sleds.OnTape+1) }},
	} {
		if err := c.create("/data/" + c.name); err == nil {
			t.Errorf("%s: created", c.name)
		}
		if _, err := sys.Stat("/data/" + c.name); err == nil {
			t.Errorf("%s: a file was left behind", c.name)
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSystem(t, small())
	if err := sys.CreateTextFile("/data/f", sleds.OnDisk, 42, 32<<10*8); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.Copy(io.Discard, f); err != nil {
		t.Fatal(err)
	}

	v, err := sys.SLEDs("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) < 2 {
		t.Fatalf("warm over-cache file has %d SLEDs, want >= 2", len(v))
	}

	p, err := sys.NewPicker(f, sleds.PickOptions{BufSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Finish()
	var total int64
	for {
		off, n, err := p.NextRead()
		if errors.Is(err, sleds.ErrPickFinished) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		total += n
	}
	if total != f.Size() {
		t.Fatalf("picker covered %d of %d bytes", total, f.Size())
	}
}

func TestDeliveryTimeDropsWhenCached(t *testing.T) {
	sys := newSystem(t, small())
	sys.CreateTextFile("/data/f", sleds.OnNFS, 1, 8<<10)
	cold, err := sys.TotalDeliveryTime("/data/f", sleds.PlanLinear)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := sys.Open("/data/f")
	io.Copy(io.Discard, f)
	f.Close()
	warm, _ := sys.TotalDeliveryTime("/data/f", sleds.PlanLinear)
	if warm*100 > cold {
		t.Fatalf("warm %v not ≪ cold %v", warm, cold)
	}
}

func TestStatsAndDropCaches(t *testing.T) {
	sys := newSystem(t, small())
	sys.CreateTextFile("/data/f", sleds.OnDisk, 2, 8*4096)
	f, _ := sys.Open("/data/f")
	defer f.Close()
	sys.ResetStats()
	io.Copy(io.Discard, f)
	if sys.Stats().Faults != 8 {
		t.Fatalf("faults = %d, want 8", sys.Stats().Faults)
	}
	sys.DropCaches()
	sys.ResetStats()
	f.Seek(0, io.SeekStart)
	io.Copy(io.Discard, f)
	if sys.Stats().Faults != 8 {
		t.Fatalf("faults after DropCaches = %d, want 8", sys.Stats().Faults)
	}
}

func TestFITSImageCreation(t *testing.T) {
	sys := newSystem(t, sleds.Config{LHEAProfile: true})
	if err := sys.CreateFITSImage("/data/img.fits", sleds.OnDisk, 7, 256, 64); err != nil {
		t.Fatal(err)
	}
	n, err := sys.Stat("/data/img.fits")
	if err != nil {
		t.Fatal(err)
	}
	if n.Size() < 256*64*2 {
		t.Fatalf("image too small: %d", n.Size())
	}
}

func TestHSMSystem(t *testing.T) {
	sys := newSystem(t, sleds.Config{CacheBytes: 64 << 10, HSMStageBytes: 1 << 20})
	sys.CreateTextFile("/data/t", sleds.OnTape, 3, 256<<10)
	f, _ := sys.Open("/data/t")
	defer f.Close()
	buf := make([]byte, 64<<10)
	f.ReadAt(buf, 0)
	sys.DropCaches()
	v, err := sys.SLEDs("/data/t")
	if err != nil {
		t.Fatal(err)
	}
	// The staged head reports disk-level latency; the unread tail tape.
	if len(v) < 2 {
		t.Fatalf("HSM file SLEDs = %v", v)
	}
	if v[0].Latency >= v[len(v)-1].Latency {
		t.Fatalf("staged head not cheaper than tape tail: %v", v)
	}
}

func TestWritableFiles(t *testing.T) {
	sys := newSystem(t, small())
	if err := sys.CreateEmptyFile("/data/out", sleds.OnDisk); err != nil {
		t.Fatal(err)
	}
	f, _ := sys.Open("/data/out")
	defer f.Close()
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Remove("/data/out"); err != nil {
		t.Fatal(err)
	}
}

func TestEnvRunsPortedApps(t *testing.T) {
	sys := newSystem(t, small())
	sys.CreateTextFile("/data/f", sleds.OnDisk, 9, 64<<10)
	env := sys.Env(true)
	if env.K == nil || env.Table == nil || !env.UseSLEDs {
		t.Fatalf("env incomplete")
	}
}

func TestHintsThroughFacade(t *testing.T) {
	sys := newSystem(t, small())
	sys.CreateTextFile("/data/f", sleds.OnDisk, 5, 8*4096)
	f, _ := sys.Open("/data/f")
	defer f.Close()
	sys.ResetStats()
	sys.WillNeed(f, 0, 8*4096)
	if sys.Stats().PrefetchIssued != 8 {
		t.Fatalf("PrefetchIssued = %d, want 8", sys.Stats().PrefetchIssued)
	}
	buf := make([]byte, 8*4096)
	f.ReadAt(buf, 0)
	if sys.Stats().Faults != 0 {
		t.Fatalf("hinted read faulted %d pages", sys.Stats().Faults)
	}
	sys.DontNeed(f, 0, 8*4096)
	n, _ := sys.Stat("/data/f")
	if sys.Kernel().PageResident(n, 0) {
		t.Fatalf("pages survive DontNeed")
	}
}

// Advice whose length runs to the end of the address space acts on exactly
// the pages from its offset to the end of the file: the length is clamped
// before any page arithmetic, so off+length cannot overflow.
func TestAdviceToEndOfFile(t *testing.T) {
	sys := newSystem(t, small())
	if err := sys.CreateTextFile("/data/f", sleds.OnDisk, 5, 8*4096); err != nil {
		t.Fatal(err)
	}
	f, err := sys.Open("/data/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resident := func(what string, want func(p int64) bool) {
		t.Helper()
		for p := int64(0); p < 8; p++ {
			if got := sys.Kernel().PageResident(f.Inode(), p); got != want(p) {
				t.Fatalf("%s: page %d resident = %v, want %v", what, p, got, want(p))
			}
		}
	}
	sys.ResetStats()
	sys.WillNeed(f, 4096, math.MaxInt64)
	if got := sys.Stats().PrefetchIssued; got != 7 {
		t.Fatalf("PrefetchIssued = %d, want 7", got)
	}
	resident("WillNeed", func(p int64) bool { return p >= 1 })
	if _, err := f.ReadAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	sys.DontNeed(f, 4096, math.MaxInt64)
	resident("DontNeed", func(p int64) bool { return p == 0 })
}
