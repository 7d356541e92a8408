package workload

// StoreBudget bounds the bytes of generated pages one Store keeps: whole
// files of the quick-scale size sweep, a prefix at paper scale.
const StoreBudget = 16 << 20

// Store is host memory Contents keep generated pages in (DESIGN.md, "What a
// grid point costs the host twice"): one flat slab, of which a Content
// leases slots at its first read for the raw generator output of its pages
// [0, n) — a static set, since a cyclic scan defeats LRU. A lease lasts
// until Reset, which hands the slab on uncleared: a slot means something
// only under its Content's filled-bit, at the epoch of the lease. Written
// pages it lends one by one, and keeps those given back across Resets.
type Store struct {
	slab  []byte   // grown on demand up to StoreBudget, kept across Resets
	used  int      // bytes of slab leased since the last Reset
	epoch uint64   // Resets so far
	pages [][]byte // written pages Release gave back, for the next write
}

// Reset ends every lease: Contents holding one go back to generating.
func (s *Store) Reset() { s.used, s.epoch = 0, s.epoch+1 }

// Held returns the bytes of host memory the store holds.
func (s *Store) Held() int { return len(s.slab) }

// KeepIn makes the content keep the pages it generates in s until s is Reset,
// and take its written pages from s. Memory is taken at the first generated
// read or the first write: an unread, unwritten file costs nothing.
func (c *Content) KeepIn(s *Store) {
	c.mem = s
	if c.gen != nil {
		c.store, c.epoch, c.filled = s, s.epoch, nil
	}
}

// slot returns the kept copy of gen's output for the page, generated on
// first use, or nil: nothing kept, lease void, or page past the kept prefix.
//
//sledlint:hotpath
func (c *Content) slot(page int64) []byte {
	s := c.store
	if s == nil || c.epoch != s.epoch {
		c.store = nil // not kept, or Reset since KeepIn: the slots are someone else's
		return nil
	}
	if c.filled == nil && !c.leaseSlots() || page >= c.slots {
		return nil
	}
	off := c.base + page*int64(c.pageSize)
	slot := s.slab[off : off+int64(c.pageSize)]
	if w, bit := page>>6, uint64(1)<<(page&63); c.filled[w]&bit == 0 {
		c.gen(page, slot)
		c.filled[w] |= bit
	}
	return slot
}

// leaseSlots claims slots for as long a prefix of the generated extent as
// the budget has room for, growing the slab; false (for good) if none.
func (c *Content) leaseSlots() bool {
	s, ps := c.store, int64(c.pageSize)
	n := min((c.genSize+ps-1)/ps, (StoreBudget-int64(s.used))/ps)
	if n <= 0 {
		c.store = nil
		return false
	}
	need := s.used + int(n*ps)
	if held := s.slab; cap(s.slab) < need { // leases hold offsets: it can move
		s.slab = make([]byte, min(StoreBudget, max(2*len(held), need)))
		copy(s.slab, held[:s.used])
	}
	//sledlint:allow hotalloc -- once per file: one bit per kept page
	c.base, c.slots, c.filled = int64(s.used), n, make([]uint64, (n+63)/64)
	s.used = need
	return true
}

// page lends a buffer of n bytes, contents unspecified, for a written page.
func (s *Store) page(n int) (buf []byte) {
	if s != nil && len(s.pages) > 0 {
		buf, s.pages = s.pages[len(s.pages)-1], s.pages[:len(s.pages)-1]
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

// Release gives the content's written pages back to its store, for the next
// write to any file to reuse, and forgets them: the content reads as its
// generated base from then on, so no read can see a page after its reuse.
// The kernel calls it once the file is removed and no File holds it open.
func (c *Content) Release() {
	for _, buf := range c.written {
		if buf != nil && c.mem != nil {
			c.mem.pages = append(c.mem.pages, buf)
		}
	}
	clear(c.written)
	c.written = c.written[:0]
}
