// Package sledlib is the application-side SLEDs library (paper §4.2).
//
// The kernel interface (internal/core) returns raw SLED vectors, "not
// directly very useful"; this library layers the services applications
// actually call:
//
//   - the pick loop — PickInit / NextRead / Finish — which advises the
//     application where to read next so that low-latency (cached) data is
//     consumed before high-latency data, each byte exactly once;
//   - total-delivery-time estimation for reporting (gmc) and pruning
//     (find -latency);
//   - record-oriented mode: SLED edges are pulled in from page boundaries
//     to record boundaries (paper Figure 4), so a reader never runs off a
//     cheap SLED mid-record and faults expensive storage;
//   - element mode (the ff* bindings added for LHEASOFT): offsets and
//     chunk sizes are kept multiples of a fixed element size so binary
//     data elements are never split.
package sledlib

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"sleds/internal/core"
	"sleds/internal/vfs"
)

// Order selects the chunk scheduling policy. The paper's library uses
// OrderLatency; the others exist for the ablation benches.
type Order int

// Scheduling orders.
const (
	// OrderLatency returns lowest-latency chunks first, lowest offset
	// among equals — the paper's algorithm.
	OrderLatency Order = iota
	// OrderLinear returns chunks in file order (what a non-SLEDs
	// application does; useful as an in-framework baseline).
	OrderLinear
	// OrderReverseLatency returns highest-latency chunks first (a
	// deliberately pessimal schedule for the ablation).
	OrderReverseLatency
)

// String names the order.
func (o Order) String() string {
	switch o {
	case OrderLatency:
		return "latency"
	case OrderLinear:
		return "linear"
	case OrderReverseLatency:
		return "reverse-latency"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// Options configures PickInit.
type Options struct {
	// BufSize is the application's preferred chunk size (the paper's
	// sleds_pick_init argument); NextRead returns chunks of this size or
	// smaller. Default 64 KiB.
	BufSize int64
	// RecordMode asks for record-oriented SLEDs; RecordSep is the record
	// separator (the paper's example: linefeed).
	RecordMode bool
	RecordSep  byte
	// ElementSize, when > 1, keeps every chunk offset and length a
	// multiple of it (the ff* element-oriented bindings). Mutually
	// exclusive with RecordMode.
	ElementSize int64
	// Order overrides the scheduling policy (default OrderLatency).
	Order Order
}

// ErrFinished is returned by NextRead after every chunk has been handed
// out or Finish has been called.
var ErrFinished = errors.New("sledlib: pick sequence finished")

// chunk is one advised read.
type chunk struct {
	off, n     int64
	latency    float64
	confidence float64 // degradation grade of the SLED the chunk came from
}

// Picker hands out the read schedule for one open file. It assumes, as
// the paper's library does, that the application follows its advice; it
// does not check.
type Picker struct {
	k        *vfs.Kernel
	tab      *core.Table
	order    Order
	file     *vfs.File
	sleds    []core.SLED
	chunks   []chunk
	next     int
	finished bool

	// scratch backs the SLED vectors Refresh re-queries; reusing it keeps
	// periodic refreshes allocation-free (p.sleds, retained from PickInit
	// for reporting, stays separately owned).
	scratch []core.SLED
}

// PickInit retrieves the file's SLEDs from the kernel and builds the read
// schedule (sleds_pick_init). The returned picker covers the file's size
// at the moment of the call.
func PickInit(k *vfs.Kernel, tab *core.Table, f *vfs.File, opts Options) (*Picker, error) {
	if opts.BufSize <= 0 {
		opts.BufSize = 64 << 10
	}
	if opts.RecordMode && opts.ElementSize > 1 {
		return nil, errors.New("sledlib: record mode and element mode are mutually exclusive")
	}
	if opts.ElementSize < 0 {
		return nil, fmt.Errorf("sledlib: negative element size %d", opts.ElementSize)
	}
	if opts.ElementSize > 1 && opts.BufSize%opts.ElementSize != 0 {
		// Shrink the buffer to a whole number of elements, mirroring the
		// paper's library returning the effective buffer size.
		opts.BufSize -= opts.BufSize % opts.ElementSize
		if opts.BufSize == 0 {
			return nil, fmt.Errorf("sledlib: element size %d exceeds buffer", opts.ElementSize)
		}
	}

	sleds, err := core.Query(k, tab, f.Inode())
	if err != nil {
		return nil, err
	}
	p := &Picker{k: k, tab: tab, order: opts.Order, file: f, sleds: sleds}

	adjusted := sleds
	if opts.RecordMode && len(sleds) > 1 {
		adjusted, err = adjustToRecords(f, sleds, opts.RecordSep)
		if err != nil {
			return nil, err
		}
	}
	if opts.ElementSize > 1 && len(adjusted) > 1 {
		adjusted = adjustToElements(adjusted, opts.ElementSize)
	}
	p.chunks = buildChunks(adjusted, opts.BufSize)
	scheduleChunks(p.chunks, opts.Order)
	return p, nil
}

// NextRead returns the next advised read location and size
// (sleds_pick_next_read). io.EOF-style: ErrFinished when exhausted.
// Called once per read in every driver loop; it allocates nothing.
func (p *Picker) NextRead() (off, n int64, err error) {
	if p.finished || p.next >= len(p.chunks) {
		return 0, 0, ErrFinished
	}
	c := p.chunks[p.next]
	p.next++
	return c.off, c.n, nil
}

// Finish releases the picker (sleds_pick_finish).
func (p *Picker) Finish() { p.finished = true }

// Refresh re-queries the kernel and reschedules the not-yet-returned
// chunks according to the *current* storage state. The paper notes this
// as an improvement its implementation lacks ("Refreshing the state of
// those SLEDs occasionally would allow the library to take advantage of
// any changes in state caused by e.g. file prefetching", §4.2); it is the
// countermeasure to the staleness limitation of §3.4.
//
// Already-returned chunks are unaffected: the exactly-once guarantee
// holds across refreshes.
//
// Refreshing is cheap enough to do on every pick: when residency and
// table config are unchanged since the last query, the table's skeleton
// memo (see internal/core/memo.go) answers the re-query from its cached
// decomposition instead of re-walking the page cache.
func (p *Picker) Refresh() error {
	if p.finished || p.next >= len(p.chunks) {
		return nil
	}
	sleds, err := core.QueryAppend(p.scratch, p.k, p.tab, p.file.Inode())
	if err != nil {
		return err
	}
	p.scratch = sleds
	remaining := p.chunks[p.next:]
	for i := range remaining {
		remaining[i].latency, remaining[i].confidence = estimateAt(sleds, remaining[i].off)
	}
	scheduleChunks(remaining, p.order)
	return nil
}

// estimateAt returns the latency and confidence estimates covering offset
// off in a SLED vector (vectors are sorted and contiguous).
func estimateAt(sleds []core.SLED, off int64) (latency, confidence float64) {
	i := sort.Search(len(sleds), func(i int) bool { return sleds[i].End() > off })
	if i >= len(sleds) {
		if len(sleds) == 0 {
			return 0, 0
		}
		i = len(sleds) - 1
	}
	return sleds[i].Latency, sleds[i].Confidence
}

// TotalDeliveryTime is the stand-alone form used by find and gmc, which
// need the estimate without building a schedule.
func TotalDeliveryTime(k *vfs.Kernel, tab *core.Table, n *vfs.Inode, plan core.Plan) (float64, error) {
	sleds, err := core.Query(k, tab, n)
	if err != nil {
		return 0, err
	}
	return core.TotalDeliveryTime(sleds, plan), nil
}

// buildChunks splits each SLED into chunks of at most bufSize bytes.
func buildChunks(sleds []core.SLED, bufSize int64) []chunk {
	var out []chunk
	for _, s := range sleds {
		for off := s.Offset; off < s.End(); off += bufSize {
			n := bufSize
			if off+n > s.End() {
				n = s.End() - off
			}
			out = append(out, chunk{off: off, n: n, latency: s.Latency, confidence: s.Confidence})
		}
	}
	return out
}

// scheduleChunks orders the chunks per the selected policy.
func scheduleChunks(chunks []chunk, order Order) {
	switch order {
	case OrderLatency:
		sort.SliceStable(chunks, func(i, j int) bool {
			if chunks[i].latency != chunks[j].latency {
				return chunks[i].latency < chunks[j].latency
			}
			// Among equal latencies prefer higher confidence: a degraded
			// device's estimate is a lower bound (its retry tail is not in
			// the SLED), so the trusted chunk is the safer first read. On
			// healthy machines every confidence is equal and this is a no-op.
			if chunks[i].confidence != chunks[j].confidence {
				return chunks[i].confidence > chunks[j].confidence
			}
			return chunks[i].off < chunks[j].off
		})
	case OrderLinear:
		sort.SliceStable(chunks, func(i, j int) bool { return chunks[i].off < chunks[j].off })
	case OrderReverseLatency:
		sort.SliceStable(chunks, func(i, j int) bool {
			if chunks[i].latency != chunks[j].latency {
				return chunks[i].latency > chunks[j].latency
			}
			return chunks[i].off < chunks[j].off
		})
	default:
		panic(fmt.Sprintf("sledlib: unknown order %d", order))
	}
}

// adjustToRecords implements the paper's Figure 4: at every boundary
// between SLEDs of different latency, the cheap side's edge is pulled in
// to a record boundary and the leading/trailing fragment is pushed to the
// expensive neighbour. Scanning for separators reads only the cheap side,
// so the adjustment itself does no expensive I/O.
func adjustToRecords(f *vfs.File, sleds []core.SLED, sep byte) ([]core.SLED, error) {
	adj := make([]core.SLED, len(sleds))
	copy(adj, sleds)

	for i := 0; i < len(adj)-1; i++ {
		b := adj[i].End() // boundary between adj[i] and adj[i+1]
		switch {
		case adj[i].Latency < adj[i+1].Latency:
			// Cheap side before the boundary: find the last separator in
			// it and give the trailing fragment to the expensive side.
			pos, err := lastSepBefore(f, adj[i].Offset, b, sep)
			if err != nil {
				return nil, err
			}
			if pos >= 0 {
				newB := pos + 1
				adj[i].Length -= b - newB
				adj[i+1].Offset = newB
				adj[i+1].Length += b - newB
			}
		case adj[i].Latency > adj[i+1].Latency:
			// Cheap side after the boundary: find the first separator in
			// it and give the leading fragment to the expensive side.
			pos, err := firstSepAfter(f, b, adj[i+1].End(), sep)
			if err != nil {
				return nil, err
			}
			if pos >= 0 {
				newB := pos + 1
				adj[i].Length += newB - b
				adj[i+1].Offset = newB
				adj[i+1].Length -= newB - b
			}
		}
	}
	// Drop SLEDs consumed entirely by fragment pushing.
	out := adj[:0]
	for _, s := range adj {
		if s.Length > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// maxRecordScan bounds how far the record-boundary adjustment reads
// looking for a separator; a longer record keeps its page boundary.
const maxRecordScan = 8 << 10

// lastSepBefore scans backward from end (exclusive) to at most
// maxRecordScan bytes, not before lo, returning the offset of the last
// separator, or -1.
func lastSepBefore(f *vfs.File, lo, end int64, sep byte) (int64, error) {
	start := end - maxRecordScan
	if start < lo {
		start = lo
	}
	if start >= end {
		return -1, nil
	}
	buf := make([]byte, end-start)
	if _, err := f.ReadAt(buf, start); err != nil && err != io.EOF {
		return -1, err
	}
	for i := len(buf) - 1; i >= 0; i-- {
		if buf[i] == sep {
			return start + int64(i), nil
		}
	}
	return -1, nil
}

// firstSepAfter scans forward from start up to maxRecordScan bytes, not
// past hi, returning the offset of the first separator, or -1.
func firstSepAfter(f *vfs.File, start, hi int64, sep byte) (int64, error) {
	end := start + maxRecordScan
	if end > hi {
		end = hi
	}
	if start >= end {
		return -1, nil
	}
	buf := make([]byte, end-start)
	if _, err := f.ReadAt(buf, start); err != nil && err != io.EOF {
		return -1, err
	}
	for i, c := range buf {
		if c == sep {
			return start + int64(i), nil
		}
	}
	return -1, nil
}

// adjustToElements moves every interior SLED boundary down to an element
// boundary, pushing the fragment to the later SLED. Which side pays is
// chosen by latency: the cheap side never keeps a split element.
func adjustToElements(sleds []core.SLED, elem int64) []core.SLED {
	adj := make([]core.SLED, len(sleds))
	copy(adj, sleds)
	for i := 0; i < len(adj)-1; i++ {
		b := adj[i].End()
		if b%elem == 0 {
			continue
		}
		var newB int64
		if adj[i].Latency <= adj[i+1].Latency {
			// Fragment joins the expensive right side: round down.
			newB = b - b%elem
		} else {
			// Fragment joins the expensive left side: round up, clamped.
			newB = b + (elem - b%elem)
			if newB > adj[i+1].End() {
				newB = adj[i+1].End()
			}
		}
		delta := newB - b
		adj[i].Length += delta
		adj[i+1].Offset = newB
		adj[i+1].Length -= delta
	}
	out := adj[:0]
	for _, s := range adj {
		if s.Length > 0 {
			out = append(out, s)
		}
	}
	return out
}
