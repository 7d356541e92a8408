package cache

import (
	"fmt"
	"testing"
	"testing/quick"
)

// checkResidencyIndex asserts the structural invariants of the index
// against the ground truth of the recency list: every nonzero page-table
// entry names a listed frame holding that key, every listed frame is
// reached from its file's table, every spare table is all zeros, and for
// every file the runs are sorted, disjoint, maximally coalesced, cover
// exactly the resident pages, and the dirty count matches the frames'
// dirty bits. epochs holds each file's epoch at the previous check and is
// updated: an epoch may never decrease, across a recycle included.
func checkResidencyIndex(t *testing.T, c *Cache, epochs map[uint64]uint64) {
	t.Helper()
	// Ground truth from the recency list, whose own structure is checked
	// on the way: links mirror each other, the list holds Len frames with
	// descending stamps, and list plus free chain account for every slot
	// of the arena.
	resident := map[uint64]map[int64]bool{}
	dirty := map[uint64]int{}
	listed := 0
	for i, prev := c.frames[head].next, int32(head); i != head; prev, i = i, c.frames[i].next {
		f := &c.frames[i]
		if f.prev != prev {
			t.Fatalf("frame %d prev = %d, reached from %d", i, f.prev, prev)
		}
		if prev != head && c.frames[prev].stamp <= f.stamp {
			t.Fatalf("stamps not descending along the list: %d then %d", c.frames[prev].stamp, f.stamp)
		}
		if got := c.lookup(f.key); got != i {
			t.Fatalf("frame %d holds %+v but its page table maps it to %d", i, f.key, got)
		}
		if listed++; listed > c.capacity {
			t.Fatalf("recency list longer than capacity %d", c.capacity)
		}
		if resident[f.key.File] == nil {
			resident[f.key.File] = map[int64]bool{}
		}
		resident[f.key.File][f.key.Page] = true
		if f.dirty {
			dirty[f.key.File]++
		}
	}
	free := 0
	for i := c.free; i != 0; i = c.frames[i].next {
		if c.frames[i].data != nil {
			t.Fatalf("free slot %d still references a page buffer", i)
		}
		if free++; free > len(c.frames) {
			t.Fatalf("free chain loops")
		}
	}
	if listed != c.Len() || listed+free+1 != len(c.frames) || len(c.frames) > c.capacity+1 {
		t.Fatalf("arena accounting: %d listed, %d free, Len %d, %d slots, capacity %d",
			listed, free, c.Len(), len(c.frames), c.capacity)
	}
	entries := 0
	for file := range c.files {
		fi := &c.files[file]
		if len(fi.pages) != cap(fi.pages) {
			t.Fatalf("file %d table len %d, cap %d", file, len(fi.pages), cap(fi.pages))
		}
		if (fi.pages == nil) != (len(resident[uint64(file)]) == 0) {
			t.Fatalf("file %d holds a table %v with %d pages resident", file, fi.pages != nil, len(resident[uint64(file)]))
		}
		for p, i := range fi.pages {
			if i == head {
				continue
			}
			entries++
			if k := (Key{File: uint64(file), Page: int64(p)}); i < 0 || int(i) >= len(c.frames) || c.frames[i].key != k || !resident[k.File][k.Page] {
				t.Fatalf("file %d table maps page %d to frame %d, which is not a listed frame holding it", file, p, i)
			}
		}
		if prev, ok := epochs[uint64(file)]; ok && fi.epoch < prev {
			t.Fatalf("file %d epoch went back from %d to %d", file, prev, fi.epoch)
		}
		if epochs != nil {
			epochs[uint64(file)] = fi.epoch
		}
	}
	if entries != listed {
		t.Fatalf("page tables hold %d entries, the list %d frames", entries, listed)
	}
	for s, sp := range c.spare {
		if len(sp.runs) != 0 || sp.dirty != 0 || sp.epoch != 0 {
			t.Fatalf("spare %d carries file state: %d runs, %d dirty, epoch %d", s, len(sp.runs), sp.dirty, sp.epoch)
		}
		for p, i := range sp.pages {
			if i != head {
				t.Fatalf("spare table %d maps page %d to frame %d", s, p, i)
			}
		}
	}
	for file, pages := range resident {
		runs := c.ResidentRuns(file)
		var covered int64
		for i, r := range runs {
			if r.Start >= r.End {
				t.Fatalf("file %d run %d empty or inverted: %+v", file, i, r)
			}
			if i > 0 {
				prev := runs[i-1]
				if r.Start < prev.End {
					t.Fatalf("file %d runs %d and %d overlap or unsorted: %+v %+v", file, i-1, i, prev, r)
				}
				if r.Start == prev.End {
					t.Fatalf("file %d runs %d and %d not coalesced: %+v %+v", file, i-1, i, prev, r)
				}
			}
			for p := r.Start; p < r.End; p++ {
				if !pages[p] {
					t.Fatalf("file %d run %+v claims non-resident page %d", file, r, p)
				}
			}
			covered += r.Pages()
		}
		if covered != int64(len(pages)) {
			t.Fatalf("file %d runs cover %d pages, list holds %d", file, covered, len(pages))
		}
		if got := c.DirtyPages(file); got != dirty[file] {
			t.Fatalf("file %d DirtyPages = %d, frames say %d", file, got, dirty[file])
		}
	}
}

// TestResidencyIndexProperty drives randomized operation sequences through
// every policy and checks the index invariants after each operation, with
// a model map validating FlushFile/InvalidateFile semantics.
func TestResidencyIndexProperty(t *testing.T) {
	for _, pol := range []Policy{LRU, Clock, FIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			f := func(ops []uint16) bool {
				model := map[Key]bool{} // resident key -> dirty
				epochs := map[uint64]uint64{}
				c := New(12, pol, func(k Key, _ []byte, _ bool) { delete(model, k) })
				for _, op := range ops {
					file := uint64(op>>8) % 3
					page := int64(op>>4) % 16
					k := Key{File: file, Page: page}
					switch op % 8 {
					case 0, 1, 2:
						dirty := op%2 == 0
						if err := c.Insert(k, nil, dirty); err != nil {
							t.Fatalf("Insert: %v", err)
						}
						model[k] = model[k] || dirty
					case 3:
						_, resident := model[k]
						if _, ok := c.Get(k); ok != resident {
							t.Fatalf("Get(%+v) hit=%v, model resident=%v", k, ok, resident)
						}
					case 4:
						if c.MarkDirty(k) {
							model[k] = true
						}
					case 5:
						c.Invalidate(k)
						delete(model, k)
					case 6:
						var flushed []Key
						c.FlushFile(file, func(fk Key, _ []byte) { flushed = append(flushed, fk) })
						for _, fk := range flushed {
							if !model[fk] {
								t.Fatalf("FlushFile wrote clean or non-resident page %+v", fk)
							}
							model[fk] = false
						}
						if c.DirtyPages(file) != 0 {
							t.Fatalf("DirtyPages %d after FlushFile", c.DirtyPages(file))
						}
					case 7:
						dirtyBefore := c.DirtyPages(file)
						evicted := 0
						for mk, md := range model {
							if mk.File == file && md {
								evicted++
							}
						}
						if dirtyBefore != evicted {
							t.Fatalf("DirtyPages(%d) = %d, model says %d", file, dirtyBefore, evicted)
						}
						c.InvalidateFile(file)
						// Clean pages are dropped without onEvict (by
						// design); purge them from the model by hand. Dirty
						// ones were removed via the eviction callback.
						for mk, md := range model {
							if mk.File != file {
								continue
							}
							if md {
								t.Fatalf("InvalidateFile skipped onEvict for dirty %+v", mk)
							}
							delete(model, mk)
						}
						if c.ResidentRuns(file) != nil {
							t.Fatalf("InvalidateFile left runs %v", c.ResidentRuns(file))
						}
					}
					checkResidencyIndex(t, c, epochs)
				}
				// Cross-check full residency against the model.
				for mk := range model {
					if !c.Contains(mk) {
						t.Fatalf("model has %+v resident, cache does not", mk)
					}
				}
				if total := c.Len(); total != len(model) {
					t.Fatalf("cache holds %d pages, model %d", total, len(model))
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFlushFileOrderMatchesRecency pins the write-back order FlushFile
// must preserve: the file's dirty frames in recency order (front of list
// first), exactly as the historical whole-list scan visited them. The
// fimhisto/fimgbin experiments call Sync inside their measured windows,
// so this order is visible in simulated device timings.
func TestFlushFileOrderMatchesRecency(t *testing.T) {
	for _, pol := range []Policy{LRU, Clock, FIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			c := New(32, pol, nil)
			// Interleave two files, dirty and clean, then touch some pages
			// to shuffle recency under LRU/CLOCK.
			for p := int64(0); p < 12; p++ {
				c.Insert(Key{File: 1, Page: p}, nil, p%2 == 0)
				c.Insert(Key{File: 2, Page: p}, nil, p%3 == 0)
			}
			for _, p := range []int64{7, 3, 11, 0} {
				c.Get(Key{File: 1, Page: p})
			}
			c.MarkDirty(Key{File: 1, Page: 5})

			dirtySet := map[int64]bool{}
			c.FlushFile(1, func(k Key, _ []byte) { dirtySet[k.Page] = true })
			// Re-dirty the same pages and flush again, comparing against the
			// recency trace captured in between.
			for p := range dirtySet {
				c.MarkDirty(Key{File: 1, Page: p})
			}
			var want []Key
			for _, k := range c.AppendRecencyTrace(nil) {
				if k.File == 1 && dirtySet[k.Page] {
					want = append(want, k)
				}
			}
			var got []Key
			c.FlushFile(1, func(k Key, _ []byte) { got = append(got, k) })
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("FlushFile order %v, recency order %v", got, want)
			}
		})
	}
}

// TestInvalidateFileOrderMatchesRecency pins the eviction order for dirty
// pages of a deleted file: onEvict fires in recency order, as the
// whole-list scan produced.
func TestInvalidateFileOrderMatchesRecency(t *testing.T) {
	for _, pol := range []Policy{LRU, Clock, FIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			var got []Key
			c := New(32, pol, func(k Key, _ []byte, dirty bool) {
				if dirty {
					got = append(got, k)
				}
			})
			for p := int64(0); p < 10; p++ {
				c.Insert(Key{File: 1, Page: p}, nil, p%2 == 0)
				c.Insert(Key{File: 2, Page: p}, nil, false)
			}
			for _, p := range []int64{8, 2, 6} {
				c.Get(Key{File: 1, Page: p})
			}
			var want []Key
			for _, k := range c.AppendRecencyTrace(nil) {
				if k.File == 1 && k.Page%2 == 0 {
					want = append(want, k)
				}
			}
			c.InvalidateFile(1)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("InvalidateFile dirty-evict order %v, recency order %v", got, want)
			}
			if c.ResidentRuns(1) != nil {
				t.Fatalf("file 1 still indexed: %v", c.ResidentRuns(1))
			}
			if len(c.ResidentRuns(2)) == 0 {
				t.Fatal("file 2's residency lost by another file's invalidation")
			}
		})
	}
}

// TestResidentRunsCoalescing exercises the splice cases of the run index
// directly: grow left, grow right, bridge two runs, split by removal.
func TestResidentRunsCoalescing(t *testing.T) {
	c := New(64, LRU, nil)
	ins := func(p int64) { c.Insert(Key{File: 1, Page: p}, nil, false) }
	ins(4)
	ins(6)
	if got := fmt.Sprint(c.ResidentRuns(1)); got != "[{4 5} {6 7}]" {
		t.Fatalf("two singletons: %s", got)
	}
	ins(5) // bridge
	if got := fmt.Sprint(c.ResidentRuns(1)); got != "[{4 7}]" {
		t.Fatalf("bridge: %s", got)
	}
	ins(3) // grow left edge
	ins(7) // grow right edge
	if got := fmt.Sprint(c.ResidentRuns(1)); got != "[{3 8}]" {
		t.Fatalf("grown: %s", got)
	}
	c.Invalidate(Key{File: 1, Page: 5}) // split
	if got := fmt.Sprint(c.ResidentRuns(1)); got != "[{3 5} {6 8}]" {
		t.Fatalf("split: %s", got)
	}
	c.Invalidate(Key{File: 1, Page: 3}) // trim head
	c.Invalidate(Key{File: 1, Page: 7}) // trim tail
	if got := fmt.Sprint(c.ResidentRuns(1)); got != "[{4 5} {6 7}]" {
		t.Fatalf("trimmed: %s", got)
	}
	c.Invalidate(Key{File: 1, Page: 4})
	c.Invalidate(Key{File: 1, Page: 6})
	if c.ResidentRuns(1) != nil {
		t.Fatalf("emptied: %v", c.ResidentRuns(1))
	}
}

// BenchmarkInvalidateFileSparse measures invalidating one small file while
// many other files occupy the cache — the case the per-file index turns
// from O(cache) into O(file).
func BenchmarkInvalidateFileSparse(b *testing.B) {
	const files, pagesPer = 256, 64
	c := New(files*pagesPer, LRU, nil)
	for f := uint64(0); f < files; f++ {
		for p := int64(0); p < pagesPer; p++ {
			c.Insert(Key{File: f, Page: p}, nil, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for p := int64(0); p < pagesPer; p++ {
			c.Insert(Key{File: 0, Page: p}, nil, false)
		}
		b.StartTimer()
		c.InvalidateFile(0)
	}
}

// BenchmarkFlushFileNoop measures fsync of a clean file in a full cache:
// with the per-file dirty count this is one map lookup.
func BenchmarkFlushFileNoop(b *testing.B) {
	const files, pagesPer = 256, 64
	c := New(files*pagesPer, LRU, nil)
	for f := uint64(0); f < files; f++ {
		for p := int64(0); p < pagesPer; p++ {
			c.Insert(Key{File: f, Page: p}, nil, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FlushFile(7, nil)
	}
}

// TestResidencyEpoch pins the epoch contract the core skeleton memo
// depends on: the counter advances exactly when the file's run vector is
// spliced — fresh insert, eviction, invalidation — never on recency or
// dirty-bit activity, and it survives (monotone) the file's last frame
// leaving the cache.
func TestResidencyEpoch(t *testing.T) {
	c := New(4, LRU, nil)
	if got := c.ResidencyEpoch(1); got != 0 {
		t.Fatalf("unseen file epoch = %d, want 0", got)
	}

	mustBump := func(what string, want bool, op func()) {
		t.Helper()
		before := c.ResidencyEpoch(1)
		op()
		after := c.ResidencyEpoch(1)
		if want && after <= before {
			t.Fatalf("%s did not advance the epoch (%d -> %d)", what, before, after)
		}
		if !want && after != before {
			t.Fatalf("%s advanced the epoch (%d -> %d), want unchanged", what, before, after)
		}
	}

	mustBump("fresh insert", true, func() { c.Insert(Key{File: 1, Page: 0}, nil, false) })
	mustBump("re-insert of a resident page", false, func() { c.Insert(Key{File: 1, Page: 0}, nil, true) })
	mustBump("Get", false, func() { c.Get(Key{File: 1, Page: 0}) })
	mustBump("MarkDirty", false, func() { c.MarkDirty(Key{File: 1, Page: 0}) })
	mustBump("FlushFile", false, func() { c.FlushFile(1, nil) })
	mustBump("FlushDirty", false, func() { c.FlushDirty(nil) })
	mustBump("Invalidate of a non-resident page", false, func() { c.Invalidate(Key{File: 1, Page: 9}) })
	mustBump("Invalidate", true, func() { c.Invalidate(Key{File: 1, Page: 0}) })

	// Other files' activity is invisible.
	mustBump("another file's insert", false, func() { c.Insert(Key{File: 2, Page: 0}, nil, false) })

	// Eviction pressure bumps the victim's epoch.
	c.Insert(Key{File: 1, Page: 3}, nil, false)
	lo := c.ResidencyEpoch(1)
	for p := int64(0); p < 4; p++ {
		c.Insert(Key{File: 3, Page: p}, nil, false) // evicts everything else
	}
	if got := c.ResidencyEpoch(1); got <= lo {
		t.Fatalf("eviction did not advance the epoch (%d -> %d)", lo, got)
	}

	// The epoch is monotone across total eviction: file 1 has no frames
	// (its page table went to the spare list) yet its epoch must not reset.
	if len(c.ResidentRuns(1)) != 0 {
		t.Fatal("file 1 should be fully evicted")
	}
	hi := c.ResidencyEpoch(1)
	if hi == 0 {
		t.Fatal("epoch reset after the file's last frame left")
	}
	mustBump("InvalidateFile of an absent file", false, func() { c.InvalidateFile(1) })
}

// TestResidencyEpochInvalidateFile checks the file-scoped invalidation
// advances the epoch once per spliced page (any advance suffices for
// correctness; the count documents the per-splice contract).
func TestResidencyEpochInvalidateFile(t *testing.T) {
	c := New(8, LRU, nil)
	for p := int64(0); p < 5; p++ {
		c.Insert(Key{File: 7, Page: p}, nil, p%2 == 0)
	}
	before := c.ResidencyEpoch(7)
	c.InvalidateFile(7)
	after := c.ResidencyEpoch(7)
	if after != before+5 {
		t.Fatalf("InvalidateFile spliced 5 pages but epoch moved %d -> %d", before, after)
	}
}
