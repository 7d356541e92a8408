package core

import (
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// memoFile creates and partially reads one file so its residency has
// both runs and gaps, returning the inode.
func memoFile(t testing.TB, k *vfs.Kernel, disk device.ID, path string, pages int64, seed uint64) *vfs.Inode {
	t.Helper()
	n, err := k.Create(path, disk, workload.NewText(seed, pages*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 3*testPage)
	for off := int64(0); off < pages; off += 7 {
		if _, err := fh.ReadAt(buf, off*testPage); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
	return n
}

// TestMemoDifferentialProperty is the differential property suite the
// query path's correctness bar names: randomized interleavings of reads
// (cache inserts + evictions, and on the tape file HSM staging and
// destaging, which move no cache or table epoch), page invalidations,
// fault observations, health decay across virtual time, load changes and
// half-life changes, over three disk files and one staged tape file, with
// Query compared bit-for-bit against its uncached configuration and the
// per-page reference after every step — at memo capacities including 0
// (disabled) and 1 (every file switch empties the memo).
func TestMemoDifferentialProperty(t *testing.T) {
	for _, capN := range []int{0, 1, 4, DefaultMemoFiles} {
		capN := capN
		t.Run(fmt.Sprintf("cap%d", capN), func(t *testing.T) {
			f := func(ops []uint32, seed uint64, polSel uint8) bool {
				pol := []cache.Policy{cache.LRU, cache.Clock, cache.FIFO}[int(polSel)%3]
				// CLOCK gets a cache larger than the largest file for the
				// same pre-existing vfs hazard TestQueryEquivalenceProperty
				// documents; fragmentation comes from the invalidation op.
				capacity := 48
				if pol == cache.Clock {
					capacity = 96
				}
				k, disk, tab := equivMachine(t, capacity, pol)
				tab.SetMemoCapacity(capN)
				load := &fakeLoad{
					depth: map[device.ID]int{},
					rem:   map[device.ID]simclock.Duration{},
				}
				sizes := []int64{23, 40, 61, 64} // pages; last page deliberately partial below
				names := []string{"/d/a", "/d/b", "/d/c", "/d/staged"}
				// The last file lives on tape behind a stager with room for
				// half of it: reads stage blocks to disk and destage others.
				tape := attachHSM(t, k, tab, disk, sizes[3]*testPage/2)
				devs := []device.ID{disk, disk, disk, tape}
				inodes := make([]*vfs.Inode, len(names))
				handles := make([]*vfs.File, len(names))
				for i, name := range names {
					size := (sizes[i]-1)*testPage + testPage/2
					n, err := k.Create(name, devs[i], workload.NewText(seed+uint64(i), size, testPage))
					if err != nil {
						t.Fatal(err)
					}
					inodes[i] = n
					fh, err := k.Open(name)
					if err != nil {
						t.Fatal(err)
					}
					defer fh.Close()
					handles[i] = fh
				}
				buf := make([]byte, 4*testPage)
				for _, op := range ops {
					fi := int(op % 4)
					n, fh := inodes[fi], handles[fi]
					pages := sizes[fi]
					// Faults and load land on the file's own device, so the
					// staged file's skeleton sees both of its levels move:
					// tape here, disk through the other files' ops.
					dev := devs[fi]
					switch (op >> 2) % 8 {
					case 0, 1, 2: // read: inserts, evictions, recency churn, staging
						off := (int64(op>>5) % pages) * testPage
						ln := int64((op>>5)%4+1) * testPage
						if _, err := fh.ReadAt(buf[:ln], off); err != nil && err != io.EOF {
							t.Fatal(err)
						}
					case 3: // invalidate one page: splices a run
						k.Cache().Invalidate(cache.Key{File: uint64(n.Ino()), Page: int64(op>>5) % pages})
					case 4: // fault: health penalty rises
						tab.ObserveFault(dev, simclock.Duration(op>>5%50)*simclock.Millisecond, k.Clock.Now())
					case 5: // decay: penalty shrinks lazily at next sample
						k.Clock.Advance(simclock.Duration(op>>5%90) * simclock.Second)
					case 6: // load flip: attach/detach + change the values
						if (op>>5)%3 == 0 {
							tab.SetLoad(nil)
						} else {
							load.depth[dev] = int(op>>5) % 5
							load.rem[dev] = simclock.Duration(op>>5%3) * simclock.Millisecond
							tab.SetLoad(load)
						}
					case 7: // health shape: half-life change or full reset
						if (op>>5)%4 == 0 {
							tab.ResetHealth()
						} else {
							tab.SetHealthHalfLife(simclock.Duration(1+op>>5%120) * simclock.Second)
						}
					}
					mustMatchRef(t, k, tab, n)
				}
				for _, n := range inodes {
					mustMatchRef(t, k, tab, n)
				}
				if capN == 0 {
					if st := tab.MemoStats(); st != (MemoStats{}) {
						t.Fatalf("disabled memo recorded activity: %+v", st)
					}
				} else if ino := inodes[3].Ino(); ino < vfs.Ino(len(tab.memo.byIno)) && tab.memo.byIno[ino] != nil {
					t.Fatalf("staged file entered the memo")
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemoMutatorAudit is the satellite bug-class audit: every mutation
// that can change a future SLED vector either bumps an epoch (the memo
// rebuilds: Misses advances) or is absorbed by the per-query overlay
// sample (the skeleton is reused: Hits advances) — and in both cases the
// result stays bit-identical to the uncached configuration and the
// per-page reference.
func TestMemoMutatorAudit(t *testing.T) {
	cases := []struct {
		name     string
		absorbed bool // true: overlay absorbs (no rebuild); false: epoch bump expected
		mutate   func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table)
	}{
		{"ObserveFault", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
		}},
		{"HealthDecay", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
			k.Clock.Advance(90 * simclock.Second)
		}},
		{"ResetHealth", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
			tab.ResetHealth()
		}},
		{"SetHealthHalfLife", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.ObserveFault(disk, 25*simclock.Millisecond, k.Clock.Now())
			tab.SetHealthHalfLife(5 * simclock.Second)
			k.Clock.Advance(20 * simclock.Second)
		}},
		{"RegistryReplace", true, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			// Swapping the device object behind an ID (fault interposition
			// does this) changes simulated service times, not the table:
			// queries never consult the registry, so no epoch is needed.
			k.Devices.Replace(disk, device.NewDisk(device.DefaultDiskConfig(disk)))
		}},
		{"SetMemory", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			if err := tab.SetMemory(Entry{Latency: 200e-9, Bandwidth: 40 * (1 << 20)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetDevice", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			if err := tab.SetDevice(disk, Entry{Latency: 21e-3, Bandwidth: 7 * (1 << 20)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetDeviceZones", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			if err := tab.SetDeviceZones(disk, []ZoneEntry{
				{FromByte: 0, Entry: Entry{Latency: 15e-3, Bandwidth: 12 * (1 << 20)}},
				{FromByte: 9*testPage + 100, Entry: Entry{Latency: 19e-3, Bandwidth: 8 * (1 << 20)}},
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetLoad", false, func(t *testing.T, k *vfs.Kernel, disk device.ID, tab *Table) {
			tab.SetLoad(&fakeLoad{
				depth: map[device.ID]int{disk: 3},
				rem:   map[device.ID]simclock.Duration{disk: simclock.Millisecond},
			})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			k, disk, tab := equivMachine(t, 64, cache.LRU)
			n := memoFile(t, k, disk, "/d/f", 30, 11)
			mustMatchRef(t, k, tab, n) // build
			mustMatchRef(t, k, tab, n) // warm
			before := tab.MemoStats()
			tc.mutate(t, k, disk, tab)
			mustMatchRef(t, k, tab, n)
			after := tab.MemoStats()
			if tc.absorbed {
				if after.Hits <= before.Hits {
					t.Fatalf("%s should be absorbed by the overlay (hit), got stats %+v -> %+v", tc.name, before, after)
				}
				if after.Misses != before.Misses {
					t.Fatalf("%s rebuilt the skeleton, want overlay absorption: %+v -> %+v", tc.name, before, after)
				}
			} else {
				if after.Misses <= before.Misses {
					t.Fatalf("%s must bump the config epoch (rebuild), got stats %+v -> %+v", tc.name, before, after)
				}
			}
		})
	}
}

// stagedFile builds the HSM machine the staged-path tests share: a
// 64-page tape file behind a stager with room for half of it.
func stagedFile(t testing.TB) (*vfs.Kernel, *Table, *vfs.Inode, *vfs.File) {
	t.Helper()
	k, disk, tab := equivMachine(t, 32, cache.LRU)
	size := int64(64 * testPage)
	tape := attachHSM(t, k, tab, disk, size/2)
	n, err := k.Create("/d/f", tape, workload.NewText(9, size, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fh.Close() })
	return k, tab, n, fh
}

// TestMemoStagedBypass pins the HSM contract: files on a staged device
// never enter the memo (the stager's migration state is outside every
// epoch) — their skeleton is built into the scratch entry per query — so
// stage/destage churn cannot stale it, and their queries leave no trace
// in the memo's counters or contents.
func TestMemoStagedBypass(t *testing.T) {
	k, tab, n, fh := stagedFile(t)
	buf := make([]byte, 12*testPage)
	for i := 0; i < 4; i++ {
		// Each read stages more blocks to disk — vector changes with zero
		// cache/table epochs moving, which is why staged files are never
		// cached.
		if _, err := fh.ReadAt(buf, int64(i)*16*testPage); err != nil {
			t.Fatal(err)
		}
		mustMatchRef(t, k, tab, n)
	}
	if st := tab.MemoStats(); st != (MemoStats{}) {
		t.Fatalf("staged-device queries must bypass the memo, got %+v", st)
	}
	if got := tab.memo.n; got != 0 {
		t.Fatalf("staged-device queries installed %d memo entries", got)
	}
}

// TestMemoGeometryInvalidation covers the one mutation path with no
// epoch at all: a WriteAt inside an already-resident page that extends
// the file's size touches neither the residency index (Get+MarkDirty
// only) nor the table, so the memo must catch it via the per-lookup
// geometry (size/extent/device) comparison.
func TestMemoGeometryInvalidation(t *testing.T) {
	k, disk, tab := equivMachine(t, 64, cache.LRU)
	size := int64(3*testPage + testPage/4)
	n, err := k.Create("/d/f", disk, workload.NewText(4, size, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	buf := make([]byte, 4*testPage)
	if _, err := fh.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	mustMatchRef(t, k, tab, n)
	mustMatchRef(t, k, tab, n)
	epochBefore := k.ResidencyEpoch(n)
	// Extend within the resident last page: size grows, no insert.
	if _, err := fh.WriteAt(buf[:testPage/2], size); err != nil {
		t.Fatal(err)
	}
	if n.Size() <= size {
		t.Fatalf("write did not extend the file: size %d", n.Size())
	}
	if got := k.ResidencyEpoch(n); got != epochBefore {
		t.Skipf("write bumped the residency epoch (%d -> %d); geometry path not exercised", epochBefore, got)
	}
	sleds := mustMatchRef(t, k, tab, n)
	if sleds[len(sleds)-1].End() != n.Size() {
		t.Fatalf("memoized vector stops at %d, file size %d", sleds[len(sleds)-1].End(), n.Size())
	}
}

// TestMemoCapacityOneThrash alternates two files through a one-entry
// memo: every switch empties the memo and rebuilds, results stay exact,
// and the eviction counter counts every entry dropped.
func TestMemoCapacityOneThrash(t *testing.T) {
	k, disk, tab := equivMachine(t, 96, cache.LRU)
	tab.SetMemoCapacity(1)
	a := memoFile(t, k, disk, "/d/a", 25, 1)
	b := memoFile(t, k, disk, "/d/b", 31, 2)
	const rounds = 6
	for i := 0; i < rounds; i++ {
		mustMatchRef(t, k, tab, a)
		mustMatchRef(t, k, tab, b)
	}
	// mustMatchRef queries each file once per call; every query but the
	// first finds the other file's entry and drops it, so nothing hits.
	st := tab.MemoStats()
	if want := (MemoStats{Misses: 2 * rounds, Evictions: 2*rounds - 1}); st != want {
		t.Fatalf("capacity-1 alternation: got %+v, want %+v", st, want)
	}
	if tab.memo.n != 1 {
		t.Fatalf("capacity-1 memo holds %d entries", tab.memo.n)
	}
}

// TestMemoTwoKernels queries one table through two kernels whose files
// carry the same inode numbers: each kernel's vector must match the
// per-page reference on that kernel, so an entry built on one kernel
// must never be served to the other.
func TestMemoTwoKernels(t *testing.T) {
	k1, disk1, tab := equivMachine(t, 64, cache.LRU)
	k2, disk2, _ := equivMachine(t, 64, cache.LRU)
	if disk1 != disk2 {
		t.Fatalf("the kernels number their disks %d and %d; the table has one row", disk1, disk2)
	}
	// Same inode number, geometry and residency epoch (14 pages inserted
	// in each), but different resident pages: everything the entry's
	// epochs and geometry compare is equal, so only its kernel tells the
	// two skeletons apart.
	n1 := memoFile(t, k1, disk1, "/d/f", 30, 1)
	n2, err := k2.Create("/d/f", disk2, workload.NewText(2, 30*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	fh, err := k2.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if _, err := fh.ReadAt(make([]byte, 14*testPage), testPage); err != nil {
		t.Fatal(err)
	}
	if n1.Ino() != n2.Ino() || n1.Extent() != n2.Extent() || k1.ResidencyEpoch(n1) != k2.ResidencyEpoch(n2) {
		t.Fatalf("files differ in inode (%d, %d), extent (%d, %d) or epoch (%d, %d): the test needs a collision",
			n1.Ino(), n2.Ino(), n1.Extent(), n2.Extent(), k1.ResidencyEpoch(n1), k2.ResidencyEpoch(n2))
	}
	for i := 0; i < 3; i++ {
		mustMatchRef(t, k1, tab, n1)
		mustMatchRef(t, k2, tab, n2)
	}
	if st := tab.MemoStats(); st.Misses != 6 || st.Hits != 0 {
		t.Fatalf("every switch of kernel must rebuild, got %+v", st)
	}
}

// TestMemoFastCopy pins the sample-equal replay tier: with residency,
// config, load and health all quiet, the second query is a hit served by
// copying the previous output — and the copy must not alias the memo's
// retained buffer.
func TestMemoFastCopy(t *testing.T) {
	k, disk, tab := equivMachine(t, 64, cache.LRU)
	n := memoFile(t, k, disk, "/d/f", 30, 6)
	first, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	st := tab.MemoStats()
	if st.Hits != 1 || st.FastCopies != 1 || st.Misses != 1 {
		t.Fatalf("want 1 miss then 1 fast-copy hit, got %+v", st)
	}
	// Corrupt the returned vector; a third query must be unaffected.
	for i := range second {
		second[i].Latency = -1
	}
	third, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range third {
		if third[i] != first[i] {
			t.Fatalf("memo retained caller-corrupted storage: %v vs %v", third[i], first[i])
		}
	}
}

// TestMemoWarmAllocsZero pins the alloc contract on both warm tiers at
// paper scale: the sample-equal fast copy and the rebuild-after-config-
// bump path (which reuses the entry's retained buffers) are both
// allocation-free once the scratch has grown.
func TestMemoWarmAllocsZero(t *testing.T) {
	k, tab, n := benchFile(t)
	var scratch []SLED
	warm := func() {
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out
	}
	warm() // build skeleton, grow buffers
	if a := testing.AllocsPerRun(10, warm); a != 0 {
		t.Fatalf("warm fast-copy path allocates %.0f/op, want 0", a)
	}
	load := &fakeLoad{depth: map[device.ID]int{}, rem: map[device.ID]simclock.Duration{}}
	rebuild := func() {
		tab.SetLoad(load) // bumps the config epoch: full skeleton rebuild
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out
	}
	rebuild()
	if a := testing.AllocsPerRun(10, rebuild); a != 0 {
		t.Fatalf("rebuild path allocates %.0f/op, want 0", a)
	}
}

// TestUncachedAllocsZero pins the alloc contract of build-don't-cache:
// once the scratch entry's buffers have grown, a query at capacity 0 and
// a query on a staged file (per-page device scatter, two devices sampled)
// allocate nothing.
func TestUncachedAllocsZero(t *testing.T) {
	query := func(k *vfs.Kernel, tab *Table, n *vfs.Inode) func() {
		var scratch []SLED
		return func() {
			out, err := QueryAppend(scratch, k, tab, n)
			if err != nil {
				t.Fatal(err)
			}
			scratch = out
		}
	}

	k, tab, n := benchFile(t)
	tab.SetMemoCapacity(0)
	cold := query(k, tab, n)
	cold() // grow buffers
	if a := testing.AllocsPerRun(10, cold); a != 0 {
		t.Fatalf("capacity-0 query allocates %.0f/op, want 0", a)
	}

	k, tab, n, fh := stagedFile(t)
	if _, err := fh.ReadAt(make([]byte, 20*testPage), 30*testPage); err != nil {
		t.Fatal(err)
	}
	staged := query(k, tab, n)
	staged() // grow buffers
	if len(tab.scratch.devs) != 2 {
		t.Fatalf("staged file should scatter over tape and disk, got devices %v", tab.scratch.devs)
	}
	if a := testing.AllocsPerRun(10, staged); a != 0 {
		t.Fatalf("staged-file query allocates %.0f/op, want 0", a)
	}
}

// BenchmarkQueryAppendCold is the capacity-0 baseline (skeleton built
// into the scratch entry on every query) the ≥10x acceptance criterion
// compares BenchmarkQueryAppend (warm) against, on the same 1024-run
// paper-scale file.
func BenchmarkQueryAppendCold(b *testing.B) {
	k, tab, n := benchFile(b)
	tab.SetMemoCapacity(0)
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

// BenchmarkQueryAppendOverlay measures the middle tier: skeleton valid
// but the dynamic sample changed, so every segment is re-estimated (no
// fast copy). The load flips between two depths each iteration.
func BenchmarkQueryAppendOverlay(b *testing.B) {
	k, tab, n := benchFile(b)
	load := &fakeLoad{depth: map[device.ID]int{n.Device(): 1}, rem: map[device.ID]simclock.Duration{}}
	tab.SetLoad(load)
	var scratch []SLED
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load.depth[n.Device()] = 1 + i%2
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
	}
}

// BenchmarkQueryAppendRebuild measures a memo miss per query (config
// epoch bumped every iteration): the same build + overlay as
// BenchmarkQueryAppendCold plus the lookup, the epoch stamp and the saved
// output copy, still allocation-free because the entry's buffers are
// reused.
func BenchmarkQueryAppendRebuild(b *testing.B) {
	k, tab, n := benchFile(b)
	load := &fakeLoad{depth: map[device.ID]int{}, rem: map[device.ID]simclock.Duration{}}
	var scratch []SLED
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.SetLoad(load)
		out, err := QueryAppend(scratch, k, tab, n)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
	}
}
