// FSLEDS_GET as a residency skeleton plus a dynamic overlay, and the memo
// that reuses skeletons across queries.
//
// A query's cost has two very different halves. The run/gap/zone
// decomposition of a file — which sections are resident, which device
// and zone back each gap — changes only when the cache's residency, the
// table's configuration or a stager's migration state changes. The load
// and health terms folded into each gap's latency change on practically
// every query. buildSkeleton derives the first half as a *residency
// skeleton* (skelSeg vector with unloaded base entries, each naming its
// backing device); sampleDevices and overlay fold in the second, sampling
// each backing device once and estimating each segment in
// O(devices + runs). Every query runs exactly this pair; the memo keeps
// skeletons per file so that most queries skip the build.
//
// Reuse is decided by epoch comparison, not notification: a cached
// skeleton is valid iff the file's residency epoch (cache splice
// counter), the table's config epoch (SetMemory/SetDevice/SetDeviceZones/
// SetLoad counter) and the inode geometry (size, extent, device) all
// match the values captured at build time. Everything else that can
// change a SLED vector — queue depth, in-flight time, fault penalties and
// their decay, half-life changes, health resets — is sampled fresh on
// every query, so it needs no epoch (the mutator-audit tests pin this).
// Files on staged (HSM, remote mount) devices are never cached: a stager
// scatters pages across levels per its own migration state, which no
// epoch covers, so their skeleton is rebuilt per query into the table's
// scratch entry — as is every skeleton when the memo is disabled.
//
// Bit-identity with the per-page reference scan (queryRef) is
// load-bearing and relies on three facts. First, devices are sampled in
// order of first appearance in the file, stopping at the first one with
// no table entry — the devices and the order in which the per-page scan
// first consults them — so the lazy health decay (which is stateful and
// not step-composable in floating point) advances identically. Second,
// estimate() is a deterministic map from (base, sample) to (entry,
// confidence): equal inputs give equal bits. Third, coalescing is
// associative, so pre-merging adjacent skeleton segments with equal
// backing commutes with the overlay's coalescing of equal estimates.
package core

import (
	"fmt"
	"math"

	"sleds/internal/device"
	"sleds/internal/vfs"
)

// DefaultMemoFiles is the default skeleton-memo capacity: enough for
// every file the experiment machines and the fleet tier keep live,
// small enough (a few runs' worth of segments per file) to be
// negligible next to the page cache itself.
const DefaultMemoFiles = 1024

// skelSeg is one segment of a residency skeleton: a byte range of the
// file together with the *unloaded* entry backing it. Resident segments
// carry the memory entry (confidence 1, no overlay term); device segments
// carry the zone's base entry, to be run through the sample of the
// device they name.
type skelSeg struct {
	off, end int64 // byte range [off, end), end clamped to file size
	dev      int   // index into memoEntry.devs, or memSeg
	base     Entry
}

// memSeg is the skelSeg.dev of a cache-resident segment.
const memSeg = -1

// memoEntry is one file's skeleton plus, for cached entries, the output
// of the most recent overlay run. Buffers (segs, devs, samples, out) are
// retained across rebuilds so the steady state — including the
// rebuild-per-query scratch entry — stays allocation-free.
type memoEntry struct {
	k        *vfs.Kernel // the kernel the skeleton was built on
	resEpoch uint64
	cfgEpoch uint64
	size     int64
	extent   int64
	dev      device.ID

	segs    []skelSeg
	devs    []device.ID     // distinct backing devices, in order of first appearance
	samples []overlaySample // per devs: the most recent query's samples

	haveOut bool // out is the overlay of segs under samples
	out     []SLED
}

// MemoStats counts skeleton-memo activity since table construction.
type MemoStats struct {
	Hits       int64 // valid skeleton found (overlay only)
	Misses     int64 // no entry, other kernel, stale epoch, or changed geometry (rebuild)
	FastCopies int64 // hits whose sample matched: output replayed by copy
	Evictions  int64 // entries dropped to keep the capacity bound
}

// sledMemo caches skeletons by inode number: a kernel numbers its inodes
// 1, 2, 3, …, so a file queried over and over is an array read. A table
// serves one machine in practice; an entry built on another kernel is a
// miss that rebuilds it in place. The capacity bound is kept by emptying
// the memo when a file past it arrives.
type sledMemo struct {
	cap   int
	n     int          // cached entries, at most cap
	byIno []*memoEntry // nil where none is cached
	stats MemoStats
}

func newSledMemo(capacity int) *sledMemo {
	return &sledMemo{cap: capacity}
}

// entry returns ino's entry, creating it on the file's first query. This
// is the one allocating path of the memo: it runs once per file (plus
// once per re-admission after the memo was emptied), never in the steady
// state the alloc gates measure.
func (m *sledMemo) entry(ino vfs.Ino) *memoEntry {
	if ino < vfs.Ino(len(m.byIno)) && m.byIno[ino] != nil {
		return m.byIno[ino]
	}
	if m.n >= m.cap {
		clear(m.byIno)
		m.stats.Evictions += int64(m.n)
		m.n = 0
	}
	for vfs.Ino(len(m.byIno)) <= ino {
		m.byIno = append(m.byIno, nil)
	}
	e := &memoEntry{}
	m.byIno[ino] = e
	m.n++
	return e
}

// query is FSLEDS_GET for a cacheable file: epoch-checked lookup,
// skeleton (re)build on miss, device samples and overlay on every call.
// When the samples match the previous run's bit for bit, the previous
// output is replayed with a copy (never aliased: callers own dst and
// recycle it across files).
func (m *sledMemo) query(dst []SLED, k *vfs.Kernel, t *Table, n *vfs.Inode) ([]SLED, error) {
	resEpoch := k.ResidencyEpoch(n)
	e := m.entry(n.Ino())
	if e.k == k && e.resEpoch == resEpoch && e.cfgEpoch == t.cfgEpoch &&
		e.size == n.Size() && e.extent == n.Extent() && e.dev == n.Device() {
		m.stats.Hits++
	} else {
		m.stats.Misses++
		t.buildSkeleton(e, k, n)
		e.k, e.resEpoch, e.cfgEpoch = k, resEpoch, t.cfgEpoch
		e.size, e.extent, e.dev = n.Size(), n.Extent(), n.Device()
	}
	same, err := t.sampleDevices(e, k, n)
	if err != nil {
		return nil, err
	}
	if same {
		m.stats.FastCopies++
		return append(dst[:0], e.out...), nil
	}
	out := e.overlay(dst)
	e.out = append(e.out[:0], out...)
	e.haveOut = true
	return out, nil
}

// buildSkeleton derives n's residency skeleton into e (reusing its
// buffers): resident runs become memory segments, and each gap becomes
// one segment per backing device and zone, found with a monotone cursor
// over the device's zones. It consults no load or health state — the
// overlay owns that — and never fails: a device with no table entry gets
// zero-entry segments, and sampleDevices reports it.
func (t *Table) buildSkeleton(e *memoEntry, k *vfs.Kernel, n *vfs.Inode) {
	size := n.Size()
	ps := int64(k.PageSize())
	pages := (size + ps - 1) / ps
	extent := n.Extent()
	runs := k.ResidentRuns(n)
	// A stager scatters the file's pages across levels (a tape file's
	// staged pages live on disk), so its gaps are classified per page.
	staged := k.DeviceStaged(n.Device())

	// Pre-size: at most one segment per run, per gap, and per zone
	// boundary falling inside a gap (a staged scatter may append past it).
	est := 2*len(runs) + 1
	if r := t.rec(n.Device()); r != nil && r.zones != nil {
		est += len(r.zones) - 1
	}
	segs := e.segs[:0]
	if cap(segs) < est {
		segs = make([]skelSeg, 0, est)
	}
	devs := e.devs[:0]

	// add appends pages [from, to) backed by (dev, base), merging with the
	// previous segment when contiguous and identically backed (safe: equal
	// backing gives equal estimates, which the overlay would coalesce
	// anyway).
	add := func(from, to int64, dev int, base Entry) {
		offB := from * ps
		endB := to * ps
		if endB > size {
			endB = size
		}
		if l := len(segs) - 1; l >= 0 && segs[l].dev == dev && segs[l].base == base && segs[l].end == offB {
			segs[l].end = endB
			return
		}
		segs = append(segs, skelSeg{off: offB, end: endB, dev: dev, base: base})
	}

	// gap classifies the uncached pages [from, to). zc is the zone cursor
	// of devs[zdev]; a staged file that alternates devices restarts it.
	var zc zoneCursor
	zdev := memSeg
	gap := func(from, to int64) {
		for p := from; p < to; {
			id, segEnd := n.Device(), to
			if staged {
				id, segEnd = k.DeviceForPage(n, p), p+1
			}
			di := 0
			for di < len(devs) && devs[di] != id {
				di++
			}
			if di == len(devs) {
				devs = append(devs, id)
			}
			if di != zdev {
				zdev, zc = di, t.zoneCursor(id)
			}
			base, until := zc.entryAt(extent + p*ps)
			if until != math.MaxInt64 {
				// First page whose start offset reaches the next zone.
				if q := (until - extent + ps - 1) / ps; q < segEnd {
					segEnd = q
				}
			}
			if segEnd <= p {
				segEnd = p + 1 // defensive: guarantee progress
			}
			add(p, segEnd, di, base)
			p = segEnd
		}
	}

	cursor := int64(0)
	for _, r := range runs {
		start, end := r.Start, r.End
		if start < cursor {
			start = cursor
		}
		if end > pages {
			end = pages
		}
		if start >= end {
			continue
		}
		if cursor < start {
			gap(cursor, start)
		}
		add(start, end, memSeg, t.mem)
		cursor = end
	}
	if cursor < pages {
		gap(cursor, pages)
	}

	e.segs, e.devs = segs, devs
	if cap(e.samples) < len(devs) {
		e.samples = make([]overlaySample, len(devs))
	}
	e.samples = e.samples[:len(devs)]
	e.haveOut = false
}

// sampleDevices captures the dynamic state of e's backing devices at the
// query instant into e.samples, in order of first appearance, failing at
// the first device with no table entry — the devices, order and error the
// per-page scan would reach, which keeps the stateful health decay
// advancing identically (a fully resident file samples nothing and cannot
// fail). It reports whether e.out is still the overlay of these samples.
func (t *Table) sampleDevices(e *memoEntry, k *vfs.Kernel, n *vfs.Inode) (bool, error) {
	now := k.Clock.Now()
	same := e.haveOut
	for i, id := range e.devs {
		if r := t.rec(id); r == nil || !r.have {
			return false, fmt.Errorf("core: no sleds table entry for device %d (file %q)", id, n.Name())
		}
		var s overlaySample
		if t.load != nil {
			s.load = true
			s.depth = t.load.QueueDepth(id)
			s.rem = t.load.InFlightRemaining(id, now)
		}
		s.pen = t.HealthPenalty(id, now)
		if s != e.samples[i] {
			same = false
			e.samples[i] = s
		}
	}
	return same, nil
}

// overlay turns e's skeleton into the SLED vector under e.samples,
// coalescing contiguous sections whose estimates come out equal.
func (e *memoEntry) overlay(dst []SLED) []SLED {
	out := dst[:0]
	if cap(out) < len(e.segs) {
		out = make([]SLED, 0, len(e.segs))
	}
	for i := range e.segs {
		s := &e.segs[i]
		ent, conf := s.base, 1.0
		if s.dev != memSeg {
			ent, conf = e.samples[s.dev].estimate(s.base)
		}
		cur := SLED{Offset: s.off, Length: s.end - s.off, Latency: ent.Latency, Bandwidth: ent.Bandwidth, Confidence: conf}
		if last := len(out) - 1; last >= 0 && out[last].SameEstimates(cur) && out[last].End() == cur.Offset {
			out[last].Length += cur.Length
		} else {
			out = append(out, cur)
		}
	}
	return out
}
