package workload

// StoreBudget bounds the bytes of generated pages a Store keeps unless
// SetBudget raises it: whole files of the quick-scale size sweep.
const StoreBudget = 16 << 20

// Key names a generator's output exactly: Gen the generator, Shape what else
// it reads besides seed, page size and page. The zero Key keys nothing.
type Key struct {
	Gen      string
	Seed     uint64
	PageSize int
	Shape    [5]int64
}

// Store is host memory Contents keep generated pages in (DESIGN.md, "What a
// grid point costs the host twice"): a slab of leases, each gen's output for
// a Content's pages [0, n) from its first read (a static set: a cyclic scan
// defeats LRU). A keyed lease outlives Reset for an equal key and extent to
// claim; unclaimed since, it is dropped before the slab grows. Written pages
// it lends one by one, and keeps those given back across Resets.
type Store struct {
	slab   []byte   // grown on demand up to the budget, kept across Resets
	budget int      // 0: StoreBudget
	leases []*lease // in slab order
	used   int64    // slab bytes up to the end of the last lease
	epoch  uint64   // Resets so far
	pages  [][]byte // written pages Release gave back, for the next write
}

// lease is the slab's bytes [base, base+size), a slot per page of one key.
type lease struct {
	key               Key
	pages, base, size int64    // pages: the generated extent it was taken for
	filled            []uint64 // bit p: slot p holds gen(p)
	epoch             uint64   // the store's epoch at the last claim
}

// Reset ends every lease: Contents holding one go back to generating, and
// only a later Content of equal key can claim it again.
func (s *Store) Reset() { s.epoch++ }

// SetBudget bounds the slab at max(n, StoreBudget) bytes, dropping a larger one.
func (s *Store) SetBudget(n int) {
	if s.budget = max(n, StoreBudget); len(s.slab) > s.budget {
		s.slab, s.leases, s.used, s.epoch = nil, nil, 0, s.epoch+1
	}
}

// Held returns the bytes of host memory the store holds.
func (s *Store) Held() int { return len(s.slab) }

// KeepIn makes the content keep the pages it generates in s until s is Reset,
// and take its written pages from s. Memory is taken at the first generated
// read or the first write: an unread, unwritten file costs nothing.
func (c *Content) KeepIn(s *Store) {
	c.mem = s
	if c.gen != nil {
		c.store, c.epoch, c.lease = s, s.epoch, nil
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
	off := page * int64(c.pageSize)
	if c.lease == nil && !c.leaseSlots() || off >= c.lease.size {
		return nil
	}
	slot := s.slab[c.lease.base+off : c.lease.base+off+int64(c.pageSize)]
	if w, bit := page>>6, uint64(1)<<(page&63); c.lease.filled[w]&bit == 0 {
		c.gen(page, slot)
		c.lease.filled[w] |= bit
	}
	return slot
}

// leaseSlots claims an equal key's lease, or leases slots for as long a prefix
// of the generated extent as the budget has room for; false (for good) if none.
func (c *Content) leaseSlots() bool {
	s, ps := c.store, int64(c.pageSize)
	pages := (c.genSize + ps - 1) / ps
	for _, l := range s.leases {
		if c.key != (Key{}) && l.key == c.key && l.pages == pages {
			l.epoch, c.lease = s.epoch, l
			return true
		}
	}
	budget := int64(max(s.budget, StoreBudget))
	if s.used+pages*ps > int64(cap(s.slab)) { // before the slab grows
		s.makeRoom()
	}
	base := s.used
	n := min(pages, (budget-base)/ps)
	if n <= 0 {
		c.store = nil
		return false
	}
	if held := s.slab; int64(cap(held)) < base+n*ps { // leases hold offsets: it can move
		s.slab = make([]byte, min(budget, max(2*int64(len(held)), base+n*ps)))
		copy(s.slab, held[:base])
	}
	//sledlint:allow hotalloc -- once per file: the lease and one bit per kept page
	c.lease = &lease{key: c.key, pages: pages, base: base, size: n * ps, filled: make([]uint64, (n+63)/64), epoch: s.epoch}
	s.leases, s.used = append(s.leases, c.lease), base+n*ps
	return true
}

// makeRoom drops the leases nothing claimed since the last Reset and moves
// the rest, in order, to the front of the slab.
func (s *Store) makeRoom() {
	kept := s.leases[:0]
	s.used = 0
	for _, l := range s.leases {
		if l.epoch == s.epoch {
			copy(s.slab[s.used:], s.slab[l.base:l.base+l.size])
			l.base, s.used = s.used, s.used+l.size
			kept = append(kept, l)
		}
	}
	s.leases = kept
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
