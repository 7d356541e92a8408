package core

import (
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

const testPage = 4096

func testMachine(t testing.TB, cachePages int) (*vfs.Kernel, device.ID, *Table) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: cachePages, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	tab := NewTable()
	if err := tab.SetMemory(Entry{Latency: 175e-9, Bandwidth: 48 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetDevice(disk, Entry{Latency: 18e-3, Bandwidth: 9 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	return k, disk, tab
}

func TestSLEDBasics(t *testing.T) {
	s := SLED{Offset: 100, Length: 50, Latency: 0.01, Bandwidth: 1000}
	if s.End() != 150 {
		t.Fatalf("End = %d", s.End())
	}
	want := 0.01 + 50.0/1000
	if got := s.DeliveryTime(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DeliveryTime = %v, want %v", got, want)
	}
	if (SLED{}).DeliveryTime() != 0 {
		t.Fatalf("zero-length delivery time not 0")
	}
	if !strings.Contains(s.String(), "lat=") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestTableValidation(t *testing.T) {
	tab := NewTable()
	if err := tab.SetMemory(Entry{Latency: -1, Bandwidth: 100}); err == nil {
		t.Fatalf("negative latency accepted")
	}
	if err := tab.SetDevice(1, Entry{Latency: 0.01, Bandwidth: 0}); err == nil {
		t.Fatalf("zero bandwidth accepted")
	}
	if _, ok := tab.Memory(); ok {
		t.Fatalf("memory entry present before fill")
	}
	if err := tab.SetMemory(Entry{Latency: 1e-7, Bandwidth: 1e8}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Memory(); !ok {
		t.Fatalf("memory entry missing after fill")
	}
}

func TestZoneValidation(t *testing.T) {
	tab := NewTable()
	cases := [][]ZoneEntry{
		{},
		{{FromByte: 10, Entry: Entry{Latency: 1, Bandwidth: 1}}},
		{{FromByte: 0, Entry: Entry{Latency: 1, Bandwidth: 0}}},
		{{FromByte: 0, Entry: Entry{Latency: 1, Bandwidth: 1}}, {FromByte: 0, Entry: Entry{Latency: 1, Bandwidth: 2}}},
	}
	for i, zs := range cases {
		if err := tab.SetDeviceZones(1, zs); err == nil {
			t.Errorf("bad zone list %d accepted", i)
		}
	}
	good := []ZoneEntry{
		{FromByte: 0, Entry: Entry{Latency: 0.018, Bandwidth: 11 * (1 << 20)}},
		{FromByte: 1 << 30, Entry: Entry{Latency: 0.018, Bandwidth: 7 * (1 << 20)}},
	}
	if err := tab.SetDeviceZones(1, good); err != nil {
		t.Fatal(err)
	}
	if e, ok := tab.deviceAt(1, 0); !ok || e.Bandwidth != 11*(1<<20) {
		t.Fatalf("zone 0 lookup wrong: %+v %v", e, ok)
	}
	if e, _ := tab.deviceAt(1, 2<<30); e.Bandwidth != 7*(1<<20) {
		t.Fatalf("zone 1 lookup wrong: %+v", e)
	}
}

func TestQueryColdFile(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	n, err := k.Create("/d/f", disk, workload.NewText(1, 10*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	sleds, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(sleds) != 1 {
		t.Fatalf("cold file has %d SLEDs, want 1: %v", len(sleds), sleds)
	}
	if sleds[0].Latency != 18e-3 {
		t.Fatalf("cold SLED latency %v, want disk's", sleds[0].Latency)
	}
	if err := Validate(sleds, n.Size()); err != nil {
		t.Fatal(err)
	}
}

func TestQueryWarmMiddle(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	n, _ := k.Create("/d/f", disk, workload.NewText(1, 10*testPage, testPage))
	f, _ := k.Open("/d/f")
	defer f.Close()
	// Touch pages 3..6.
	buf := make([]byte, 4*testPage)
	f.ReadAt(buf, 3*testPage)

	sleds, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(sleds, n.Size()); err != nil {
		t.Fatal(err)
	}
	if len(sleds) != 3 {
		t.Fatalf("got %d SLEDs, want 3 (disk/mem/disk): %v", len(sleds), sleds)
	}
	if sleds[1].Offset != 3*testPage || sleds[1].Length != 4*testPage {
		t.Fatalf("memory SLED = %v", sleds[1])
	}
	if sleds[1].Latency >= sleds[0].Latency {
		t.Fatalf("memory SLED not faster than disk SLED")
	}
}

func TestQueryPartialFinalPage(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	n, _ := k.Create("/d/f", disk, workload.NewText(1, 2*testPage+100, testPage))
	sleds, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(sleds, n.Size()); err != nil {
		t.Fatal(err)
	}
	if sleds[len(sleds)-1].End() != 2*testPage+100 {
		t.Fatalf("SLEDs do not end at EOF: %v", sleds)
	}
}

func TestQueryEmptyFile(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	n, _ := k.CreateEmpty("/d/empty", disk)
	_ = disk
	sleds, err := Query(k, tab, n)
	if err != nil || len(sleds) != 0 {
		t.Fatalf("empty file: %v, %v", sleds, err)
	}
	if err := Validate(sleds, 0); err != nil {
		t.Fatal(err)
	}
}

func TestQueryMissingEntries(t *testing.T) {
	k, disk, _ := testMachine(t, 64)
	n, _ := k.Create("/d/f", disk, workload.NewText(1, testPage, testPage))

	empty := NewTable()
	if _, err := Query(k, empty, n); err == nil {
		t.Fatalf("query without memory entry succeeded")
	}
	onlyMem := NewTable()
	onlyMem.SetMemory(Entry{Latency: 1e-7, Bandwidth: 1e8})
	if _, err := Query(k, onlyMem, n); err == nil {
		t.Fatalf("query without device entry succeeded")
	}
}

func TestQueryDoesNotPerturbCache(t *testing.T) {
	k, disk, tab := testMachine(t, 4)
	n, _ := k.Create("/d/f", disk, workload.NewText(1, 8*testPage, testPage))
	f, _ := k.Open("/d/f")
	defer f.Close()
	io.Copy(io.Discard, f) // pages 4..7 resident (cache holds 4)
	before := k.Cache().AppendRecencyTrace(nil)
	if _, err := Query(k, tab, n); err != nil {
		t.Fatal(err)
	}
	after := k.Cache().AppendRecencyTrace(nil)
	if len(before) != len(after) {
		t.Fatalf("query changed cache size")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("query reordered the cache (probe effect)")
		}
	}
}

func TestQueryZonedDevice(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	// Two zones with the boundary in the middle of the file's extent.
	n, _ := k.Create("/d/f", disk, workload.NewText(1, 10*testPage, testPage))
	boundary := n.Extent() + 5*testPage
	tab.SetDeviceZones(disk, []ZoneEntry{
		{FromByte: 0, Entry: Entry{Latency: 0.018, Bandwidth: 11 * (1 << 20)}},
		{FromByte: boundary, Entry: Entry{Latency: 0.018, Bandwidth: 7 * (1 << 20)}},
	})
	sleds, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(sleds) != 2 {
		t.Fatalf("zoned query: %d SLEDs, want 2: %v", len(sleds), sleds)
	}
	if sleds[0].Bandwidth <= sleds[1].Bandwidth {
		t.Fatalf("outer zone not faster: %v", sleds)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := []SLED{
		{Offset: 0, Length: 100, Latency: 1, Bandwidth: 10},
		{Offset: 100, Length: 100, Latency: 2, Bandwidth: 10},
	}
	if err := Validate(good, 200); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
	bad := []struct {
		name  string
		sleds []SLED
		size  int64
	}{
		{"empty for nonempty", nil, 10},
		{"nonempty for empty", good, 0},
		{"bad start", []SLED{{Offset: 5, Length: 5, Latency: 1, Bandwidth: 1}}, 10},
		{"gap", []SLED{{Offset: 0, Length: 4, Latency: 1, Bandwidth: 1}, {Offset: 5, Length: 5, Latency: 2, Bandwidth: 1}}, 10},
		{"overlap", []SLED{{Offset: 0, Length: 6, Latency: 1, Bandwidth: 1}, {Offset: 5, Length: 5, Latency: 2, Bandwidth: 1}}, 10},
		{"uncoalesced", []SLED{{Offset: 0, Length: 5, Latency: 1, Bandwidth: 1}, {Offset: 5, Length: 5, Latency: 1, Bandwidth: 1}}, 10},
		{"short", []SLED{{Offset: 0, Length: 5, Latency: 1, Bandwidth: 1}}, 10},
		{"zero length", []SLED{{Offset: 0, Length: 0, Latency: 1, Bandwidth: 1}}, 0},
		{"bad bandwidth", []SLED{{Offset: 0, Length: 10, Latency: 1}}, 10},
		{"bad confidence", []SLED{{Offset: 0, Length: 10, Latency: 1, Bandwidth: 1, Confidence: 1.5}}, 10},
	}
	for _, tc := range bad {
		if err := Validate(tc.sleds, tc.size); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// Property: whatever prefix of a file has been read, Query returns a
// structurally valid vector, and the resident byte count implied by
// memory SLEDs equals pages resident * page size (clamped at EOF).
func TestQueryInvariantProperty(t *testing.T) {
	f := func(pagesRaw, touchRaw uint8) bool {
		pages := int64(pagesRaw%20) + 1
		k, disk, tab := testMachine(t, 8)
		size := pages*testPage - 123 // ragged EOF
		if size < 1 {
			size = 1
		}
		n, err := k.Create("/d/f", disk, workload.NewText(7, size, testPage))
		if err != nil {
			return false
		}
		file, _ := k.Open("/d/f")
		defer file.Close()
		// Touch an arbitrary prefix.
		touch := int64(touchRaw) % (pages + 1)
		if touch > 0 {
			file.ReadAt(make([]byte, touch*testPage), 0)
		}
		sleds, err := Query(k, tab, n)
		if err != nil {
			return false
		}
		if err := Validate(sleds, n.Size()); err != nil {
			return false
		}
		memEntry, _ := tab.Memory()
		var memBytes int64
		for _, s := range sleds {
			if s.Latency == memEntry.Latency {
				memBytes += s.Length
			}
		}
		var wantBytes int64
		filePages := (n.Size() + testPage - 1) / testPage
		for p := int64(0); p < filePages; p++ {
			if k.PageResident(n, p) {
				l := int64(testPage)
				if (p+1)*testPage > n.Size() {
					l = n.Size() - p*testPage
				}
				wantBytes += l
			}
		}
		return memBytes == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalDeliveryTimePlans(t *testing.T) {
	sleds := []SLED{
		{Offset: 0, Length: 1000, Latency: 0.5, Bandwidth: 1000},
		{Offset: 1000, Length: 1000, Latency: 0.001, Bandwidth: 1e6},
		{Offset: 2000, Length: 1000, Latency: 0.5, Bandwidth: 1000},
	}
	linear := TotalDeliveryTime(sleds, PlanLinear)
	wantLinear := (0.5 + 1.0) + (0.001 + 0.001) + (0.5 + 1.0)
	if math.Abs(linear-wantLinear) > 1e-9 {
		t.Fatalf("linear = %v, want %v", linear, wantLinear)
	}
	best := TotalDeliveryTime(sleds, PlanBest)
	wantBest := 1.0 + 0.001 + 1.0 + 0.5 + 0.001 // transfers + each latency class once
	if math.Abs(best-wantBest) > 1e-9 {
		t.Fatalf("best = %v, want %v", best, wantBest)
	}
	if best >= linear {
		t.Fatalf("best plan (%v) not cheaper than linear (%v)", best, linear)
	}
}

// TestRangeDelivery pins the range estimate the fleet selector and guided
// replay share: the first overlapped section's latency, each overlapped
// byte at its own section's bandwidth, the lowest confidence, and no
// estimate for a range the vector does not reach.
func TestRangeDelivery(t *testing.T) {
	sleds := []SLED{
		{Offset: 0, Length: 1000, Latency: 0.5, Bandwidth: 1000, Confidence: 1},
		{Offset: 1000, Length: 1000, Latency: 0.001, Bandwidth: 1e6, Confidence: 0.25},
		{Offset: 2000, Length: 1000, Latency: 0.5, Bandwidth: 1000, Confidence: 0.5},
	}
	cases := []struct {
		off, n int64
		sec    float64
		conf   float64
		ok     bool
	}{
		{0, 500, 0.5 + 0.5, 1, true},
		{1500, 1000, 0.001 + 500/1e6 + 0.5, 0.25, true},
		{500, 2000, 0.5 + 0.5 + 1000/1e6 + 0.5, 0.25, true},
		{2999, 100, 0.5 + 0.001, 0.5, true}, // clamped at the end of the vector
		{3000, 100, 0, 1, false},
		{1000, 0, 0, 1, false},
	}
	for _, c := range cases {
		sec, conf, ok := RangeDelivery(sleds, c.off, c.n)
		if ok != c.ok || conf != c.conf || math.Abs(sec-c.sec) > 1e-12 {
			t.Errorf("RangeDelivery(%d, %d) = %v, %v, %v; want %v, %v, %v", c.off, c.n, sec, conf, ok, c.sec, c.conf, c.ok)
		}
	}
}

func TestTotalDeliveryTimeBadPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("bad plan did not panic")
		}
	}()
	TotalDeliveryTime(nil, Plan(99))
}

func TestPlanString(t *testing.T) {
	if PlanLinear.String() != "SLEDS_LINEAR" || PlanBest.String() != "SLEDS_BEST" {
		t.Fatalf("plan names wrong")
	}
	if !strings.Contains(Plan(5).String(), "5") {
		t.Fatalf("unknown plan string")
	}
}

func TestQueryDirectoryFails(t *testing.T) {
	k, _, tab := testMachine(t, 16)
	n, _ := k.Stat("/d")
	if _, err := Query(k, tab, n); err == nil {
		t.Fatalf("Query on directory succeeded")
	}
}

// Property: the best attack plan never estimates worse than linear, and
// both are no less than the pure transfer time.
func TestPlanOrderingProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var sleds []SLED
		off := int64(0)
		for _, r := range raw {
			length := int64(r%100000) + 1
			lat := float64(r%7) * 1e-3
			bw := float64(r%5+1) * 1e6
			sleds = append(sleds, SLED{Offset: off, Length: length, Latency: lat, Bandwidth: bw})
			off += length
		}
		if len(sleds) == 0 {
			return true
		}
		linear := TotalDeliveryTime(sleds, PlanLinear)
		best := TotalDeliveryTime(sleds, PlanBest)
		var transfer float64
		for _, s := range sleds {
			transfer += float64(s.Length) / s.Bandwidth
		}
		const eps = 1e-9
		return best <= linear+eps && best+eps >= transfer && linear+eps >= transfer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fakeLoad is a scripted core.Load for the load-awareness tests.
type fakeLoad struct {
	depth map[device.ID]int
	rem   map[device.ID]simclock.Duration
}

func (l *fakeLoad) QueueDepth(id device.ID) int { return l.depth[id] }
func (l *fakeLoad) InFlightRemaining(id device.ID, now simclock.Duration) simclock.Duration {
	return l.rem[id]
}

func TestDeviceUnderLoadInflatesLatency(t *testing.T) {
	_, disk, tab := testMachine(t, 64)
	base, ok := tab.Device(disk)
	if !ok {
		t.Fatal("no disk entry")
	}

	// No load source attached: identical to the plain entry.
	e, ok := tab.DeviceUnderLoad(disk, 0)
	if !ok || e != base {
		t.Fatalf("unloaded entry = %+v, want %+v", e, base)
	}

	load := &fakeLoad{
		depth: map[device.ID]int{disk: 3},
		rem:   map[device.ID]simclock.Duration{disk: 5 * simclock.Millisecond},
	}
	tab.SetLoad(load)
	e, ok = tab.DeviceUnderLoad(disk, 0)
	if !ok {
		t.Fatal("entry vanished under load")
	}
	want := base.Latency*4 + 5e-3 // latency*(1+depth) + in-flight remaining
	if math.Abs(e.Latency-want) > 1e-12 {
		t.Fatalf("loaded latency = %v, want %v", e.Latency, want)
	}
	if e.Bandwidth != base.Bandwidth {
		t.Fatalf("load changed bandwidth: %v != %v", e.Bandwidth, base.Bandwidth)
	}

	// Idle device through an attached source: no inflation.
	load.depth[disk], load.rem[disk] = 0, 0
	if e, _ := tab.DeviceUnderLoad(disk, 0); e != base {
		t.Fatalf("idle loaded entry = %+v, want %+v", e, base)
	}

	// Detach: back to the plain entry even with stale load state around.
	load.depth[disk] = 7
	tab.SetLoad(nil)
	if e, _ := tab.DeviceUnderLoad(disk, 0); e != base {
		t.Fatalf("detached entry = %+v, want %+v", e, base)
	}
}

func TestQueryFoldsLoadIntoUncachedPagesOnly(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	n, err := k.Create("/d/f", disk, workload.NewText(1, 10*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	f, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Warm pages 3..6 so the query sees disk/mem/disk.
	buf := make([]byte, 4*testPage)
	f.ReadAt(buf, 3*testPage)

	quiet, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}

	tab.SetLoad(&fakeLoad{
		depth: map[device.ID]int{disk: 2},
		rem:   map[device.ID]simclock.Duration{disk: simclock.Millisecond},
	})
	loaded, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(loaded, n.Size()); err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(quiet) {
		t.Fatalf("load changed SLED structure: %d vs %d", len(loaded), len(quiet))
	}
	base, _ := tab.Device(disk)
	wantDisk := base.Latency*3 + 1e-3
	for i, s := range loaded {
		if quiet[i].Latency == base.Latency {
			// Uncached section: latency inflated, bandwidth untouched.
			if math.Abs(s.Latency-wantDisk) > 1e-12 {
				t.Fatalf("SLED %d latency %v, want %v", i, s.Latency, wantDisk)
			}
			if s.Bandwidth != quiet[i].Bandwidth {
				t.Fatalf("SLED %d bandwidth changed under load", i)
			}
		} else if s != quiet[i] {
			// Cached section: untouched by device load.
			t.Fatalf("cached SLED %d changed under load: %v vs %v", i, s, quiet[i])
		}
	}
}
