// Package workload provides the data that lives "on" the simulated
// devices: deterministic, page-addressable file contents.
//
// The experiments scan files up to 128 MB many times over. No file is
// materialised up front: page p of a file is a pure function of (seed, p),
// generated when it is faulted in, into a buffer the kernel supplies (and
// recycles). Three layers stack on top of the generator:
//
//   - fragments: byte ranges spliced in at fixed offsets (grep match lines
//     are planted this way);
//   - written pages: pages stored verbatim after a simulated write (fimhisto's
//     output file), in buffers its Store lends and Release takes back;
//   - a size, which a write past EOF moves; bytes past the generated
//     extent read as zeros unless written.
//
// Generation is host work the simulated clock never sees, so who pays for
// it, and how often, is a host-side choice no figure can observe. Text
// (TextGen, a few microseconds per 4 KB page) is for readers that look at
// the bytes: wc, grep, the FITS tools. An experiment whose programs only
// move bytes — the engine scale sweep, trace replay — passes a nil
// generator to New. Its pages are zero pages (ZeroPage): the kernel caches
// them without a buffer, and a read of one clears the reader's bytes.
//
// What a generator produced is kept for the page's next miss (store.go): a
// warm-cache experiment misses a page 6 to 18 times per grid point, and a
// Content copies it from a Store its kernel's arena lends (~0.1 us) instead
// of generating it again (~5 us). Text and FITS content are keyed (Key), so
// the pair's other mode, a later grid point, claims what they kept. A Store,
// one per sweep worker, holds at most its budget (StoreBudget unless a sweep
// sets more), takes memory only when a generated page is first read, and
// leaves pages past the budget to be generated on every miss.
package workload

import (
	"fmt"
	"sort"
)

// PageGen fills buf with the base content of the given page. buf always
// has the full page size; generators must fill it completely.
type PageGen func(page int64, buf []byte)

// fragment is a byte range overlaid on the base content.
type fragment struct {
	off  int64
	data []byte
}

// Content is the byte store behind one simulated file.
type Content struct {
	size int64
	// genSize bounds the generated bytes: the size the content was created
	// with, or less after a shrink. Bytes in [genSize, size) — what a write
	// past EOF or a later grow exposes — are zeros unless written.
	genSize  int64
	pageSize int
	gen      PageGen    // nil: the base content is zeros
	frags    []fragment // sorted by offset
	written  [][]byte   // written[p]: page p as last written; nil: never
	mem      *Store     // lends written pages; Release gives them back
	// Generated pages kept in a Store (store.go):
	key   Key    // names gen's output; zero: unkeyed
	store *Store // nil: generate on every read
	epoch uint64 // store's epoch at KeepIn; any other voids the lease
	lease *lease // nil until the first generated read
}

// New creates content of the given size whose base bytes come from gen, or
// are zeros if gen is nil.
func New(size int64, pageSize int, gen PageGen) *Content {
	if size < 0 || pageSize <= 0 {
		panic(fmt.Sprintf("workload: bad geometry size=%d pageSize=%d", size, pageSize))
	}
	return &Content{size: size, genSize: size, pageSize: pageSize, gen: gen}
}

// NewKeyed is New, at key.PageSize, for a generator whose output key names.
func NewKeyed(key Key, size int64, gen PageGen) *Content {
	c := New(size, key.PageSize, gen)
	c.key = key
	return c
}

// NewBytes creates content holding exactly data (copied).
func NewBytes(data []byte, pageSize int) *Content {
	c := New(int64(len(data)), pageSize, nil)
	c.written = make([][]byte, c.Pages())
	for p := range c.written {
		c.written[p] = make([]byte, pageSize)
		copy(c.written[p], data[p*pageSize:])
	}
	return c
}

// Size returns the content length in bytes.
func (c *Content) Size() int64 { return c.size }

// PageSize returns the page size in bytes.
func (c *Content) PageSize() int { return c.pageSize }

// Pages returns the number of pages (the last may be partial).
func (c *Content) Pages() int64 {
	return (c.size + int64(c.pageSize) - 1) / int64(c.pageSize)
}

// TryInsertAt splices data over the base content at byte offset off.
// Splices may not extend past the current size and may not overlap an
// existing fragment (the workloads plant disjoint match lines); violating
// either bound returns a descriptive error and leaves the content
// unchanged.
func (c *Content) TryInsertAt(off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > c.size {
		return fmt.Errorf("workload: splice [%d,%d) outside [0,%d)", off, off+int64(len(data)), c.size)
	}
	for _, f := range c.frags {
		if off < f.off+int64(len(f.data)) && f.off < off+int64(len(data)) {
			return fmt.Errorf("workload: splice at %d overlaps fragment at %d", off, f.off)
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.frags = append(c.frags, fragment{off: off, data: cp})
	sort.Slice(c.frags, func(i, j int) bool { return c.frags[i].off < c.frags[j].off })
	return nil
}

// ReadPage fills buf (which must be PageSize bytes) with the content of
// the given page: generated base (its kept copy, if any), fragments
// overlaid, or the written page verbatim. Bytes past Size, and unwritten
// bytes past the generated extent, are zeroed.
func (c *Content) ReadPage(page int64, buf []byte) {
	if len(buf) != c.pageSize {
		panic(fmt.Sprintf("workload: ReadPage buffer %d != page size %d", len(buf), c.pageSize))
	}
	if page < 0 || page >= c.Pages() {
		panic(fmt.Sprintf("workload: page %d out of range [0,%d)", page, c.Pages()))
	}
	pageStart := page * int64(c.pageSize)
	limit := c.size // the page's bytes at or past limit are zero
	if page < int64(len(c.written)) && c.written[page] != nil {
		copy(buf, c.written[page])
	} else {
		if c.genSize < limit {
			limit = c.genSize
		}
		if pageStart < limit {
			if c.gen == nil {
				clear(buf)
			} else if slot := c.slot(page); slot != nil {
				copy(buf, slot)
			} else {
				c.gen(page, buf)
			}
			c.applyFragments(page, buf)
		}
	}
	if tail := max(limit-pageStart, 0); tail < int64(c.pageSize) {
		clear(buf[tail:])
	}
}

// ZeroPage reports whether the page reads as zeros with nothing to fill it
// from: never written, and past the generated extent or under a nil
// generator with no fragments.
func (c *Content) ZeroPage(page int64) bool {
	if page*int64(c.pageSize) < c.genSize && (c.gen != nil || len(c.frags) > 0) {
		return false
	}
	return page >= int64(len(c.written)) || c.written[page] == nil
}

// applyFragments overlays the fragments intersecting the page.
func (c *Content) applyFragments(page int64, buf []byte) {
	pageStart := page * int64(c.pageSize)
	pageEnd := pageStart + int64(c.pageSize)
	// Fragments are sorted and disjoint; start at the first that ends past
	// the page start.
	i := sort.Search(len(c.frags), func(i int) bool {
		f := c.frags[i]
		return f.off+int64(len(f.data)) > pageStart
	})
	for ; i < len(c.frags); i++ {
		f := c.frags[i]
		if f.off >= pageEnd {
			break
		}
		srcStart := int64(0)
		dstStart := f.off - pageStart
		if dstStart < 0 {
			srcStart = -dstStart
			dstStart = 0
		}
		n := int64(len(f.data)) - srcStart
		if dstStart+n > int64(c.pageSize) {
			n = int64(c.pageSize) - dstStart
		}
		copy(buf[dstStart:dstStart+n], f.data[srcStart:srcStart+n])
	}
}

// WritePage stores data as the page's content (copied, into the page's
// previous copy when it has one, else into a page the content's store
// lends). Subsequent reads of the page return it verbatim, shadowing the
// generator and fragments.
func (c *Content) WritePage(page int64, data []byte) {
	if len(data) != c.pageSize {
		panic(fmt.Sprintf("workload: WritePage buffer %d != page size %d", len(data), c.pageSize))
	}
	if page < 0 {
		panic(fmt.Sprintf("workload: negative page %d", page))
	}
	for int64(len(c.written)) <= page {
		c.written = append(c.written, nil)
	}
	if c.written[page] == nil {
		c.written[page] = c.mem.page(c.pageSize)
	}
	copy(c.written[page], data)
	if end := (page + 1) * int64(c.pageSize); end > c.size {
		// Writing past EOF extends the file, page-granular.
		c.size = end
	}
}

// ReadAll materialises the whole content; intended for tests and small
// files only.
func (c *Content) ReadAll() []byte {
	out := make([]byte, c.size)
	buf := make([]byte, c.pageSize)
	for p := int64(0); p < c.Pages(); p++ {
		c.ReadPage(p, buf)
		start := p * int64(c.pageSize)
		copy(out[start:], buf)
	}
	return out
}
