package core

import (
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/hsm"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// equivMachine is testMachine with a selectable replacement policy; the
// equivalence suite runs every scenario under LRU, CLOCK and FIFO because
// the policies produce different residency shapes for the same reads.
func equivMachine(t testing.TB, cachePages int, pol cache.Policy) (*vfs.Kernel, device.ID, *Table) {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: cachePages, Policy: pol, MemDevice: mem})
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

// attachHSM turns the machine into a tape + disk hierarchy: a tape
// library with its own table entry, and an HSM stager (16-page blocks,
// capacity bytes of disk staging area) interposed on it. Files created on
// the returned device are staged: their uncached pages scatter over tape
// and disk as the stager migrates blocks.
func attachHSM(t testing.TB, k *vfs.Kernel, tab *Table, disk device.ID, capacity int64) device.ID {
	t.Helper()
	tape := k.AttachDevice(device.NewTapeLibrary(device.DefaultTapeLibraryConfig(2)))
	if err := tab.SetDevice(tape, Entry{Latency: 40, Bandwidth: 2 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	if _, err := hsm.New(k, hsm.Config{Tape: tape, Disk: disk, Capacity: capacity}); err != nil {
		t.Fatal(err)
	}
	return tape
}

// mustMatchRef asserts that Query as the table is configured (skeleton
// reused from the memo when enabled), Query with the memo taken away
// (skeleton built into the scratch entry and discarded — what capacity 0
// does) and the per-page reference produce byte-identical SLED vectors
// (or identical errors) for the inode: two configurations of the one
// implementation against the one oracle, on the same table state. The
// memo is set aside rather than resized so its contents and counters
// survive for the tests that read them. Calling all three back to back
// at one virtual instant is exact: the lazy health decay is idempotent at
// a fixed now, so the first call brings the penalty current and the
// others observe the same bits.
func mustMatchRef(t *testing.T, k *vfs.Kernel, tab *Table, n *vfs.Inode) []SLED {
	t.Helper()
	got, gotErr := Query(k, tab, n)
	memo := tab.memo
	tab.memo = nil
	uncached, uncachedErr := Query(k, tab, n)
	tab.memo = memo
	want, wantErr := queryRef(k, tab, n)
	if (gotErr == nil) != (wantErr == nil) || (uncachedErr == nil) != (wantErr == nil) {
		t.Fatalf("error divergence: query=%v uncached=%v ref=%v", gotErr, uncachedErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() || uncachedErr.Error() != wantErr.Error() {
			t.Fatalf("error text divergence:\nquery: %v\nuncached: %v\nref: %v", gotErr, uncachedErr, wantErr)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SLED vector divergence:\nquery: %v\nref: %v", got, want)
	}
	if !reflect.DeepEqual(uncached, want) {
		t.Fatalf("SLED vector divergence:\nuncached: %v\nref: %v", uncached, want)
	}
	if err := Validate(got, n.Size()); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestQueryEquivalenceProperty drives randomized read patterns (hence
// randomized residency-run shapes) through every policy, with and without
// zones and load, and demands exact agreement with the per-page scan.
func TestQueryEquivalenceProperty(t *testing.T) {
	for _, pol := range []cache.Policy{cache.LRU, cache.Clock, cache.FIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := func(sizeSel uint8, tail uint16, reads []uint16, zoned, loaded bool, seed uint64) bool {
				pages := int64(sizeSel%60) + 1
				size := (pages-1)*testPage + int64(tail)%testPage + 1
				// CLOCK gets a cache larger than the file: a pre-existing
				// (and here irrelevant) vfs hazard lets a demand read's own
				// cluster inserts evict the faulted page when rotation has
				// every other frame referenced. Fragmented residency for
				// CLOCK comes from the invalidation punches below instead.
				capacity := 37
				if pol == cache.Clock {
					capacity = 64
				}
				k, disk, tab := equivMachine(t, capacity, pol)
				if zoned {
					// Boundaries deliberately misaligned to the page size:
					// a page straddling a zone must be classified by its
					// start offset, as the per-page scan does.
					if err := tab.SetDeviceZones(disk, []ZoneEntry{
						{FromByte: 0, Entry: Entry{Latency: 15e-3, Bandwidth: 12 * (1 << 20)}},
						{FromByte: 13*testPage + 777, Entry: Entry{Latency: 18e-3, Bandwidth: 9 * (1 << 20)}},
						{FromByte: 41 * testPage, Entry: Entry{Latency: 22e-3, Bandwidth: 6 * (1 << 20)}},
					}); err != nil {
						t.Fatal(err)
					}
				}
				if loaded {
					tab.SetLoad(&fakeLoad{
						depth: map[device.ID]int{disk: 2},
						rem:   map[device.ID]simclock.Duration{disk: simclock.Millisecond},
					})
				}
				n, err := k.Create("/d/f", disk, workload.NewText(seed, size, testPage))
				if err != nil {
					t.Fatal(err)
				}
				fh, err := k.Open("/d/f")
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 4*testPage)
				for _, r := range reads {
					off := (int64(r>>4) % pages) * testPage
					ln := int64(r%4+1) * testPage
					if _, err := fh.ReadAt(buf[:ln], off); err != nil && err != io.EOF {
						t.Fatal(err)
					}
					mustMatchRef(t, k, tab, n)
				}
				fh.Close()
				// Punch holes to fragment the residency runs further.
				for i, r := range reads {
					if i%3 == 0 {
						k.Cache().Invalidate(cache.Key{File: uint64(n.Ino()), Page: int64(r) % pages})
					}
				}
				mustMatchRef(t, k, tab, n)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQueryEquivalenceDegraded compares against the reference while the
// device's health penalty decays across virtual time: confidence grading
// and penalty folding must agree at every sample instant.
func TestQueryEquivalenceDegraded(t *testing.T) {
	k, disk, tab := equivMachine(t, 64, cache.LRU)
	n, err := k.Create("/d/f", disk, workload.NewText(3, 20*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 5*testPage)
	if _, err := fh.ReadAt(buf, 8*testPage); err != nil {
		t.Fatal(err)
	}

	tab.ObserveFault(disk, 40*simclock.Millisecond, k.Clock.Now())
	for i := 0; i < 6; i++ {
		sleds := mustMatchRef(t, k, tab, n)
		if i == 0 {
			degraded := false
			for _, s := range sleds {
				if s.Confidence < 1 {
					degraded = true
				}
			}
			if !degraded {
				t.Fatalf("no degraded SLED right after a fault: %v", sleds)
			}
		}
		k.Clock.Advance(45 * simclock.Second) // across penalty half-lives
	}
}

// TestQueryEquivalenceHSM stages part of a tape file to disk and caches
// part of the staged range in RAM, producing the three-level vector the
// per-page device scatter must classify identically to the per-page scan
// — flat, and with both devices zoned so the zone cursor restarts every
// time the scatter alternates between them.
func TestQueryEquivalenceHSM(t *testing.T) {
	for _, pol := range []cache.Policy{cache.LRU, cache.Clock, cache.FIFO} {
		for _, zoned := range []bool{false, true} {
			pol, zoned := pol, zoned
			name := pol.String()
			if zoned {
				name += "/zoned"
			}
			t.Run(name, func(t *testing.T) {
				k, disk, tab := equivMachine(t, 32, pol)
				size := int64(80 * testPage)
				tape := attachHSM(t, k, tab, disk, size/2)
				if zoned {
					for _, dev := range []device.ID{disk, tape} {
						base, _ := tab.Device(dev)
						if err := tab.SetDeviceZones(dev, []ZoneEntry{
							{FromByte: 0, Entry: base},
							{FromByte: 27*testPage + 777, Entry: Entry{Latency: base.Latency * 1.25, Bandwidth: base.Bandwidth / 2}},
							{FromByte: 66 * testPage, Entry: Entry{Latency: base.Latency * 1.5, Bandwidth: base.Bandwidth / 4}},
						}); err != nil {
							t.Fatal(err)
						}
					}
				}
				n, err := k.Create("/d/f", tape, workload.NewText(9, size, testPage))
				if err != nil {
					t.Fatal(err)
				}
				fh, err := k.Open("/d/f")
				if err != nil {
					t.Fatal(err)
				}
				defer fh.Close()
				// Stage and partially cache the tail, then a bit of the middle;
				// the tiny page cache evicts parts of what was staged, leaving
				// staged-but-not-resident ranges.
				buf := make([]byte, 20*testPage)
				if _, err := fh.ReadAt(buf, size-20*testPage); err != nil {
					t.Fatal(err)
				}
				if _, err := fh.ReadAt(buf[:6*testPage], 30*testPage); err != nil {
					t.Fatal(err)
				}
				sleds := mustMatchRef(t, k, tab, n)
				levels := map[float64]bool{}
				for _, s := range sleds {
					levels[s.Bandwidth] = true
				}
				if len(levels) < 3 {
					t.Fatalf("expected RAM+disk+tape levels, got %d in %v", len(levels), sleds)
				}
			})
		}
	}
}

// TestQueryEquivalenceMissingEntry checks the error path agrees with the
// reference: same message, raised at the first uncached page, and a fully
// cached file on an unknown device must NOT error (the reference never
// consults the table for resident pages).
func TestQueryEquivalenceMissingEntry(t *testing.T) {
	k, disk, _ := equivMachine(t, 64, cache.LRU)
	n, err := k.Create("/d/f", disk, workload.NewText(5, 6*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	bare := NewTable()
	if err := bare.SetMemory(Entry{Latency: 175e-9, Bandwidth: 48 * (1 << 20)}); err != nil {
		t.Fatal(err)
	}
	mustMatchRef(t, k, bare, n) // cold file, no device entry: both must error identically

	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 6*testPage)
	if _, err := fh.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if sleds := mustMatchRef(t, k, bare, n); len(sleds) != 1 {
		t.Fatalf("fully cached file: %v", sleds)
	}
}

// benchFile builds a paper-scale sparse-residency file: 256 MB (65536
// pages) with an 8-page resident run every 64 pages — 1024 runs, the
// FSLEDS_GET shape the index is built for. Residency is installed
// directly in the page cache so setup stays cheap.
func benchFile(b testing.TB) (*vfs.Kernel, *Table, *vfs.Inode) {
	b.Helper()
	k, disk, tab := equivMachine(b, 1<<14, cache.LRU)
	size := int64(256 << 20)
	n, err := k.Create("/d/big", disk, workload.NewText(7, size, testPage))
	if err != nil {
		b.Fatal(err)
	}
	c := k.Cache()
	for p := int64(0); p < size/testPage; p += 64 {
		for q := p; q < p+8; q++ {
			if err := c.Insert(cache.Key{File: uint64(n.Ino()), Page: q}, nil, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	return k, tab, n
}

// BenchmarkQuery measures the O(runs) FSLEDS_GET on the paper-scale
// sparse file; compare with BenchmarkQueryRef (the per-page scan) for the
// speedup and allocation delta.
func BenchmarkQuery(b *testing.B) {
	k, tab, n := benchFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(k, tab, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAppend is BenchmarkQuery with the scratch-reuse entry
// point the pick library uses: steady-state queries allocate nothing.
func BenchmarkQueryAppend(b *testing.B) {
	k, tab, n := benchFile(b)
	var scratch []SLED
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
	}
}

// BenchmarkQueryRef is the original per-page FSLEDS_GET on the same file,
// kept as the baseline the acceptance criterion compares against.
func BenchmarkQueryRef(b *testing.B) {
	k, tab, n := benchFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queryRef(k, tab, n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQueryAllocsFewerThanRef pins the "strictly fewer allocations"
// acceptance criterion at paper scale.
func TestQueryAllocsFewerThanRef(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale allocation comparison")
	}
	k, tab, n := benchFile(t)
	newAllocs := testing.AllocsPerRun(5, func() {
		if _, err := Query(k, tab, n); err != nil {
			t.Fatal(err)
		}
	})
	refAllocs := testing.AllocsPerRun(5, func() {
		if _, err := queryRef(k, tab, n); err != nil {
			t.Fatal(err)
		}
	})
	if newAllocs >= refAllocs {
		t.Fatalf("Query allocs/op = %.0f, reference = %.0f; want strictly fewer", newAllocs, refAllocs)
	}
	t.Logf("allocs/op: new=%.0f ref=%.0f", newAllocs, refAllocs)
}
