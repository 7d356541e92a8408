// Package cache implements the file system buffer cache: a fixed-capacity
// pool of page frames indexed by (file, page) with pluggable replacement.
//
// The cache is the heart of the reproduction. The paper's Figure 3 shows
// why applications need SLEDs at all: under LRU, two linear passes over a
// file larger than the cache derive no benefit from one another, because
// the first pass's tail is evicted by its own head. SLEDs let the second
// pass read the surviving tail first. Everything measured in Figures 7-15
// follows from this cache behaviour.
//
// Replacement policies: strict LRU (the default, matching Linux 2.2's
// approximation), CLOCK (second chance), and FIFO. The ablation benches
// compare the SLEDs gain across them.
//
// The index is per file, as Linux 2.6 indexes its page cache where 2.2
// hashed: a slice indexed by file id, and in it each resident file's page
// table (page → frame), its resident pages as a sorted vector of maximally
// coalesced runs, its dirty-page count and residency epoch, all updated
// incrementally on every insert, eviction and invalidation. A lookup is
// two loads, FSLEDS_GET reads a file's residency in O(runs)
// (ResidentRuns), and FlushFile and InvalidateFile touch only that file's
// frames. DESIGN.md, "What a page costs the kernel on the host", has the
// layout and its recycling rule.
package cache

import (
	"fmt"
	"sort"
)

// Policy selects the replacement algorithm.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	Clock
	FIFO
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case Clock:
		return "CLOCK"
	case FIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Key identifies a cached page: a file identity plus a page index within
// the file. File ids are dense (inode numbers); pages are never negative.
type Key struct {
	File uint64
	Page int64
}

// Run is a maximal range of consecutive resident pages of one file:
// pages [Start, End). A file's residency is a sorted, disjoint vector of
// runs — exactly the shape FSLEDS_GET consumes, one memory section per
// run and one device section per gap.
type Run struct {
	Start int64 // first resident page
	End   int64 // one past the last resident page
}

// fileIdx is one file's slot in the index: its page table (page → arena
// index of the frame holding it; 0, the recency sentinel's slot, for
// absent), resident runs, dirty-page count and residency epoch.
type fileIdx struct {
	pages []int32 // len == cap; entries past the highest resident page are 0
	runs  []Run
	dirty int
	epoch uint64
}

// slot returns page p's table entry, growing the table to reach it.
func (fi *fileIdx) slot(p int64) *int32 {
	if int64(cap(fi.pages)) <= p {
		grown := make([]int32, max(p+1, 2*int64(len(fi.pages)), minTable))
		copy(grown, fi.pages)
		fi.pages = grown
	}
	return &fi.pages[p]
}

// minTable is the fewest pages a fresh page table holds.
const minTable = 64

// insert adds page p to the run vector, coalescing with neighbours. The
// caller guarantees p is not already resident (the page table is checked
// first); a resident p is tolerated as a no-op for safety.
func (fi *fileIdx) insert(p int64) {
	runs := fi.runs
	// First run ending at or after p: the only candidates that contain or
	// touch p on the left.
	i := firstEndingAfter(runs, p-1)
	if i < len(runs) && runs[i].Start <= p && p < runs[i].End {
		return // already resident
	}
	left := i < len(runs) && runs[i].End == p
	j := i
	if left {
		j = i + 1
	}
	right := j < len(runs) && runs[j].Start == p+1
	switch {
	case left && right:
		runs[i].End = runs[j].End
		fi.runs = append(runs[:j], runs[j+1:]...)
	case left:
		runs[i].End = p + 1
	case right:
		runs[j].Start = p
	default:
		runs = append(runs, Run{})
		copy(runs[j+1:], runs[j:])
		runs[j] = Run{Start: p, End: p + 1}
		fi.runs = runs
	}
}

// remove drops page p from the run vector, splitting a run if p is
// interior. A non-resident p is a no-op.
func (fi *fileIdx) remove(p int64) {
	runs := fi.runs
	i := firstEndingAfter(runs, p)
	if i >= len(runs) || runs[i].Start > p {
		return // not resident
	}
	r := runs[i]
	switch {
	case r.Start == p && r.End == p+1:
		fi.runs = append(runs[:i], runs[i+1:]...)
	case r.Start == p:
		runs[i].Start = p + 1
	case r.End == p+1:
		runs[i].End = p
	default:
		runs[i].End = p
		runs = append(runs, Run{})
		copy(runs[i+2:], runs[i+1:])
		runs[i+1] = Run{Start: p + 1, End: r.End}
		fi.runs = runs
	}
}

// firstEndingAfter returns the index of the first run whose End exceeds p
// (len(runs) if none): sort.Search written out. Inlined, the two compile
// to the same loop at 0 allocs/op; called out of line, sort.Search's
// closure call measured about 14% slower on 64-run slices (2-core x86-64).
func firstEndingAfter(runs []Run, p int64) int {
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if runs[mid].End > p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// frame is one slot of the frame arena: a resident page linked into the
// recency list, or a free slot linked into the free chain. Links are arena
// indices, so a frame costs no allocation of its own and the arena can
// grow by append.
type frame struct {
	key        Key
	data       []byte
	stamp      uint64 // recency stamp; mirrors list order (front = highest)
	prev, next int32  // recency list neighbours (next alone chains free slots)
	dirty      bool
	ref        bool // CLOCK reference bit
}

// head is the arena index of the recency list's sentinel: its next is the
// front (most recent) frame, its prev the back. An empty list links the
// sentinel to itself.
const head = 0

// EvictFn is called when a page is evicted, and when a dirty page is
// invalidated. dirty reports whether the page held unwritten data; the
// callee owns writing it back. The callee also owns data from then on: the
// cache keeps no reference to an evicted page's buffer.
type EvictFn func(key Key, data []byte, dirty bool)

// Stats counts cache activity since construction.
type Stats struct {
	Hits           int64
	Misses         int64 // recorded by the caller via RecordMiss (a Get that missed)
	Inserts        int64
	Evictions      int64
	DirtyEvictions int64
}

// Cache is a fixed-capacity page cache. Not safe for concurrent use; the
// simulated kernel is single-threaded.
type Cache struct {
	capacity int
	policy   Policy
	onEvict  EvictFn

	// frames is the arena: slot head is the recency list's sentinel, the
	// rest are resident pages or free slots. It grows by append, to at most
	// capacity+1 slots, and never shrinks. The list runs in recency order:
	// front = most recently used (LRU), or insertion order (FIFO/CLOCK with
	// the hand at the back).
	frames []frame
	free   int32 // first free slot, chained through next; 0 = none
	n      int   // resident pages

	// files is the index, one fileIdx per file id ever inserted: file ids
	// are inode numbers, dense and never reused. A file holds a page table
	// and a run vector only while it has resident pages; when its last page
	// leaves, both (the table all zeros again) wait in spare for the next
	// file to become resident, so a workload that cycles many files through
	// the cache allocates nothing per file. The fileIdx itself, and with it
	// the epoch, stays.
	files []fileIdx
	spare []fileIdx // pages and runs only
	// tick stamps every move-to-front/insertion so that a file's frames
	// can be replayed in list order (descending stamp) without scanning
	// the list.
	tick uint64

	// scratch is reused by the file-scoped collect operations.
	scratch []int32

	// onDrop, when set, receives the buffer of every clean page that
	// Invalidate/InvalidateFile drop (see SetDropFn).
	onDrop func(data []byte)

	stats Stats
}

// New creates a cache holding at most capacity pages. onEvict may be nil.
func New(capacity int, policy Policy, onEvict EvictFn) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive capacity %d", capacity))
	}
	return &Cache{
		capacity: capacity,
		policy:   policy,
		onEvict:  onEvict,
		frames:   make([]frame, 1),
	}
}

// Recycle is New on the storage of prev, a cache nobody uses again: its frame
// arena at the size it grew to, page tables and run vectors, all emptied.
// prev is left empty, sharing nothing with the result; nil prev is New.
func Recycle(prev *Cache, capacity int, policy Policy, onEvict EvictFn) *Cache {
	c := New(capacity, policy, onEvict)
	if prev == nil {
		return c
	}
	for i := range prev.files {
		if fi := &prev.files[i]; fi.pages != nil {
			clear(fi.pages)
			prev.spare = append(prev.spare, fileIdx{pages: fi.pages, runs: fi.runs[:0]})
		}
	}
	clear(prev.frames)
	c.frames, prev.frames = prev.frames[:1], c.frames
	c.files, c.spare, c.scratch = prev.files[:0], prev.spare, prev.scratch
	*prev = Cache{capacity: prev.capacity, policy: prev.policy, frames: prev.frames}
	return c
}

// Frames reports how many slots the arena has room for, sentinel included.
func (c *Cache) Frames() int { return cap(c.frames) }

// Cap returns the capacity in pages.
func (c *Cache) Cap() int { return c.capacity }

// Len returns the number of resident pages.
func (c *Cache) Len() int { return c.n }

// SetDropFn installs fn to receive the buffer of every clean page dropped
// by Invalidate or InvalidateFile — the one way a page leaves the cache
// without passing through the EvictFn. An owner that recycles page
// buffers needs both to see every buffer come back.
func (c *Cache) SetDropFn(fn func(data []byte)) { c.onDrop = fn }

// link inserts frame i at the front of the recency list.
func (c *Cache) link(i int32) {
	f, h := &c.frames[i], &c.frames[head]
	f.prev, f.next = head, h.next
	c.frames[h.next].prev = i
	h.next = i
}

// unlink removes frame i from the recency list.
func (c *Cache) unlink(i int32) {
	f := &c.frames[i]
	c.frames[f.prev].next = f.next
	c.frames[f.next].prev = f.prev
}

// remove takes frame i out of the list and the index, returns its slot
// to the free chain, and returns what the slot held.
func (c *Cache) remove(i int32) frame {
	f := c.frames[i]
	c.unlink(i)
	c.unindex(&f)
	c.frames[i] = frame{next: c.free}
	c.free = i
	c.n--
	return f
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// touch moves frame i to the front and restamps it. Stamps mirror list
// order — a frame moved or pushed to the front always carries the highest
// stamp — so file-scoped operations can reconstruct list order by sorting.
func (c *Cache) touch(i int32) {
	if c.frames[head].next != i {
		c.unlink(i)
		c.link(i)
	}
	c.tick++
	c.frames[i].stamp = c.tick
}

// lookup returns the arena index of k's frame, head if k is not resident.
func (c *Cache) lookup(k Key) int32 {
	if k.File < uint64(len(c.files)) && k.Page >= 0 && k.Page < int64(len(c.files[k.File].pages)) {
		return c.files[k.File].pages[k.Page]
	}
	return head
}

// Get returns the page data if resident, updating recency state. The
// returned slice aliases the cached frame; callers must not retain it
// across evictions (the simulated kernel copies out immediately).
func (c *Cache) Get(k Key) ([]byte, bool) {
	i := c.lookup(k)
	if i == head {
		return nil, false
	}
	switch c.policy {
	case LRU:
		c.touch(i)
	case Clock:
		c.frames[i].ref = true
	case FIFO:
		// insertion order is never disturbed
	}
	c.stats.Hits++
	return c.frames[i].data, true
}

// Contains reports residency WITHOUT touching recency state. This is what
// the kernel's FSLEDS_GET page scan uses: estimating latency must not
// itself reorder the cache (a probe effect the paper's implementation
// avoids by reading kernel page tables directly).
func (c *Cache) Contains(k Key) bool {
	return c.lookup(k) != head
}

// RecordMiss notes that a lookup missed; kept separate from Get so that
// pure residency probes don't inflate miss counts.
func (c *Cache) RecordMiss() { c.stats.Misses++ }

// file returns the file's index entry, nil if the file was never inserted.
func (c *Cache) file(file uint64) *fileIdx {
	if file >= uint64(len(c.files)) {
		return nil
	}
	return &c.files[file]
}

// index enters frame i into its file's page table and runs (the caller
// owns linking it into the list), giving the file a spare table and run
// vector if it had none.
func (c *Cache) index(i int32) {
	f := &c.frames[i]
	for uint64(len(c.files)) <= f.key.File {
		c.files = append(c.files, fileIdx{})
	}
	fi := &c.files[f.key.File]
	if n := len(c.spare); fi.pages == nil && n > 0 {
		fi.pages, fi.runs = c.spare[n-1].pages, c.spare[n-1].runs
		c.spare = c.spare[:n-1]
	}
	*fi.slot(f.key.Page) = i
	fi.insert(f.key.Page)
	fi.epoch++
	if f.dirty {
		fi.dirty++
	}
}

// unindex removes the frame from its file's page table and runs (the
// caller owns removing it from the list). A file left with no resident
// page hands its table, all zeros again, and its run vector to spare.
func (c *Cache) unindex(f *frame) {
	fi := &c.files[f.key.File]
	fi.pages[f.key.Page] = head
	fi.remove(f.key.Page)
	fi.epoch++
	if f.dirty {
		fi.dirty--
	}
	if len(fi.runs) == 0 {
		c.spare = append(c.spare, fileIdx{pages: fi.pages, runs: fi.runs})
		fi.pages, fi.runs = nil, nil
	}
}

// Insert adds a page, evicting as needed. Inserting a key that is already
// resident replaces its data and dirty bit (and refreshes recency). A
// negative page is an error, and so, defensively, is finding no eviction
// victim (the bounded CLOCK sweep always terminates).
func (c *Cache) Insert(k Key, data []byte, dirty bool) error {
	if k.Page < 0 {
		return fmt.Errorf("cache: inserting file %d page %d: negative page", k.File, k.Page)
	}
	if i := c.lookup(k); i != head {
		f := &c.frames[i]
		f.data = data
		if dirty && !f.dirty {
			f.dirty = true
			c.files[k.File].dirty++
		}
		switch c.policy {
		case LRU:
			c.touch(i)
		case Clock:
			f.ref = true
		}
		return nil
	}
	for c.n >= c.capacity {
		if err := c.evictOne(); err != nil {
			return fmt.Errorf("cache: inserting file %d page %d: %w", k.File, k.Page, err)
		}
	}
	i := c.free
	if i != 0 {
		c.free = c.frames[i].next
	} else {
		c.frames = append(c.frames, frame{})
		c.frames = c.frames[:len(c.frames):min(cap(c.frames), c.capacity+1)] // no slot it cannot use
		i = int32(len(c.frames) - 1)
	}
	c.tick++
	c.frames[i] = frame{key: k, data: data, dirty: dirty, stamp: c.tick}
	c.link(i)
	c.n++
	c.index(i)
	c.stats.Inserts++
	return nil
}

// EvictOne removes one page according to the policy, invoking onEvict.
// Callers that must act between an eviction and a subsequent insertion
// (the kernel defers evicted dirty pages' write-backs so the multi-stream
// engine can suspend mid-write) evict explicitly with this before
// inserting; Insert still evicts on its own when room is short.
func (c *Cache) EvictOne() error { return c.evictOne() }

// evictOne removes one page according to the policy.
func (c *Cache) evictOne() error {
	var victim int32 // head = none
	switch c.policy {
	case LRU, FIFO:
		victim = c.frames[head].prev
	case Clock:
		// Second chance: examine the back; if referenced, clear the bit
		// and rotate to the front, else evict. Bounded by 2n iterations.
		for i := 0; i < 2*c.n+1 && c.n > 0; i++ {
			b := c.frames[head].prev
			if f := &c.frames[b]; f.ref {
				f.ref = false
				c.touch(b)
				continue
			}
			victim = b
			break
		}
	}
	if victim == head {
		return fmt.Errorf("cache: no eviction victim found (%d resident of %d frames, policy %s)",
			c.n, c.capacity, c.policy)
	}
	c.evict(victim)
	return nil
}

// evict removes frame i with eviction accounting and hands the page to
// onEvict.
func (c *Cache) evict(i int32) {
	f := c.remove(i)
	c.stats.Evictions++
	if f.dirty {
		c.stats.DirtyEvictions++
	}
	if c.onEvict != nil {
		c.onEvict(f.key, f.data, f.dirty)
	}
}

// drop removes clean frame i without eviction accounting: the
// invalidation path, which bypasses onEvict.
func (c *Cache) drop(i int32) {
	if f := c.remove(i); c.onDrop != nil {
		c.onDrop(f.data)
	}
}

// MarkDirty flags a resident page as modified; reports whether the page
// was resident.
func (c *Cache) MarkDirty(k Key) bool {
	i := c.lookup(k)
	if i == head {
		return false
	}
	if f := &c.frames[i]; !f.dirty {
		f.dirty = true
		c.files[k.File].dirty++
	}
	return true
}

// SetData replaces a resident page's data and nothing else: recency, the
// dirty bit, the runs, the epoch and the counters stay as they are. Reports
// whether the page was resident.
func (c *Cache) SetData(k Key, data []byte) bool {
	i := c.lookup(k)
	if i == head {
		return false
	}
	c.frames[i].data = data
	return true
}

// Invalidate drops a page if resident, without calling onEvict for clean
// pages; dirty pages still flow through onEvict so data is not lost.
func (c *Cache) Invalidate(k Key) {
	if i := c.lookup(k); i != head {
		c.invalidate(i)
	}
}

// invalidate drops frame i: silently if clean, through onEvict if dirty.
func (c *Cache) invalidate(i int32) {
	if c.frames[i].dirty {
		c.evict(i)
	} else {
		c.drop(i)
	}
}

// collectFile gathers the file's resident frames — just the dirty ones
// when dirtyOnly is set — in recency order (front of list first), using
// the file's runs, page table and the stamps instead of a whole-cache
// scan. The result aliases c.scratch; callers consume it before the next
// collect.
func (c *Cache) collectFile(fi *fileIdx, dirtyOnly bool) []int32 {
	els := c.scratch[:0]
	for _, r := range fi.runs {
		for _, i := range fi.pages[r.Start:r.End] {
			if dirtyOnly && !c.frames[i].dirty {
				continue
			}
			els = append(els, i)
		}
	}
	// Descending stamp = list front-to-back: the exact order the historical
	// whole-list scan visited these frames, which fixes the write-back and
	// eviction order the simulated devices observe.
	sort.Slice(els, func(i, j int) bool {
		return c.frames[els[i]].stamp > c.frames[els[j]].stamp
	})
	c.scratch = els
	return els
}

// InvalidateFile drops every page of the given file (used when a simulated
// file is deleted), touching only that file's frames.
func (c *Cache) InvalidateFile(file uint64) {
	fi := c.file(file)
	if fi == nil {
		return
	}
	for _, i := range c.collectFile(fi, false) {
		c.invalidate(i)
	}
}

// FlushDirty invokes write for every dirty page (front-to-back) and marks
// them clean. It models sync/write-back without eviction.
func (c *Cache) FlushDirty(write func(Key, []byte)) {
	for i := c.frames[head].next; i != head; i = c.frames[i].next {
		if f := &c.frames[i]; f.dirty {
			if write != nil {
				write(f.key, f.data)
			}
			f.dirty = false
			c.files[f.key.File].dirty--
		}
	}
}

// FlushFile invokes write for every dirty page of one file and marks them
// clean (fsync(2) for the simulated world). Only the file's own frames
// are visited — a file with no dirty pages costs one index load.
func (c *Cache) FlushFile(file uint64, write func(Key, []byte)) {
	fi := c.file(file)
	if fi == nil || fi.dirty == 0 {
		return
	}
	for _, i := range c.collectFile(fi, true) {
		f := &c.frames[i]
		if write != nil {
			write(f.key, f.data)
		}
		f.dirty = false
		fi.dirty--
	}
}

// ResidentRuns returns the file's resident pages as a sorted vector of
// maximally coalesced page runs, without touching recency state — the
// O(runs) residency snapshot FSLEDS_GET iterates. The returned slice
// aliases the index; callers must not modify it and should consume it
// before the next cache mutation.
func (c *Cache) ResidentRuns(file uint64) []Run {
	if fi := c.file(file); fi != nil {
		return fi.runs
	}
	return nil
}

// ResidencyEpoch returns the file's residency epoch: a counter that
// advances on every change to the file's resident-run vector and never
// moves backward or resets. Two calls returning the same value bracket a
// window in which ResidentRuns was unchanged — the invalidation signal
// core's skeleton memo keys on. Re-inserting a resident page (which only
// refreshes recency or the dirty bit), MarkDirty and the flushes do not
// advance it.
func (c *Cache) ResidencyEpoch(file uint64) uint64 {
	if fi := c.file(file); fi != nil {
		return fi.epoch
	}
	return 0
}

// AppendRecencyTrace appends the resident keys, most to least recently
// used, to dst and returns it; the experiment harness renders the paper's
// Figure 3 table from it, reusing dst across snapshots.
func (c *Cache) AppendRecencyTrace(dst []Key) []Key {
	for i := c.frames[head].next; i != head; i = c.frames[i].next {
		dst = append(dst, c.frames[i].key)
	}
	return dst
}
