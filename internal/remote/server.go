package remote

import (
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Server models the file server proper — its disk, its memory, and its
// buffer cache — separated from the Mount so the same machinery can back
// a single client mount or one replica in a fleet of servers. All costs
// are charged against the caller's clock: the server owns no time of its
// own, exactly as the characterization devices do.
//
// The disk starts life as the *device.Disk built from Config.ServerDisk
// and may be swapped for a wrapper (a fault injector) with ReplaceDisk;
// every internal access goes through the fallible device helpers, so a
// fault injected on the server disk surfaces as an error to the client
// rather than being silently absorbed.
type Server struct {
	cfg      Config
	pageSize int64

	disk device.Device // the server's disk, possibly wrapped by an injector
	mem  *device.Mem

	// The server buffer cache, keyed by server-disk page: an LRU over
	// index-linked frames, found through an open-addressed slot table.
	//
	// frames[head] is the recency list's sentinel (next = MRU, prev = LRU);
	// frames grow by append until the cache is full, after which an insert
	// takes over the frame it evicts. slots maps a page to its frame index
	// by linear probing from the page's hash; 0 (the sentinel, never a
	// page's frame) marks an empty slot. The table doubles as frames are
	// added so that it always has at least twice as many slots as there
	// are pages cached: probes are short, an empty slot always ends one,
	// and a large cache holding few pages probes a small table.
	frames   []pageFrame
	slots    []int32 // length a power of two
	shift    uint    // 64 - log2(len(slots)): the hash keeps the product's top bits
	capacity int
}

// pageFrame is one resident server page, linked into the recency list by
// frame index.
type pageFrame struct {
	page       int64
	prev, next int32
}

// head is the frame index of the recency list's sentinel.
const head = 0

// NewServer builds a server from cfg. The caller fixes ServerDisk.ID and
// ServerDisk.Name before calling: the disk is constructed exactly as
// configured, so a registered characterization device and the server's
// own disk agree on identity (faults report the right device).
func NewServer(cfg Config, pageSize int64) (*Server, error) {
	if cfg.WireBandwidth <= 0 {
		return nil, fmt.Errorf("remote: non-positive wire bandwidth")
	}
	if cfg.ServerCachePages <= 0 {
		return nil, fmt.Errorf("remote: server cache of %d pages", cfg.ServerCachePages)
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("remote: non-positive page size %d", pageSize)
	}
	return &Server{
		cfg:      cfg,
		pageSize: pageSize,
		disk:     device.NewDisk(cfg.ServerDisk),
		mem:      device.NewMem(cfg.ServerMem),
		frames:   make([]pageFrame, 1),
		slots:    make([]int32, 2),
		shift:    63,
		capacity: cfg.ServerCachePages,
	}, nil
}

// Disk returns the server's disk as currently wired (the raw disk, or
// whatever wrapper ReplaceDisk installed).
func (s *Server) Disk() device.Device { return s.disk }

// ReplaceDisk swaps the server's disk for d — the hook for stacking a
// fault injector under the server, mirroring Registry.Replace for
// registered devices. Returns the previous disk so callers can unwrap.
func (s *Server) ReplaceDisk(d device.Device) device.Device {
	old := s.disk
	s.disk = d
	return old
}

// CachedPages reports how many pages the server currently caches.
func (s *Server) CachedPages() int { return len(s.frames) - 1 }

// CachedBytes reports how many bytes of [off, off+n) the server's cache
// holds right now, without touching recency — the basis for a client-side
// estimate of what a read through this server would cost.
//
//sledlint:hotpath
func (s *Server) CachedBytes(off, n int64) int64 {
	if s.CachedPages() == 0 {
		return 0
	}
	var cached int64
	end := off + n
	page := off / s.pageSize
	pageEnd := (page + 1) * s.pageSize
	for cur := off; cur < end; page, pageEnd = page+1, pageEnd+s.pageSize {
		stop := min(end, pageEnd)
		if s.has(page, false) {
			cached += stop - cur
		}
		cur = stop
	}
	return cached
}

// home is the slot a page's probe sequence starts at (Fibonacci hashing:
// consecutive pages of one file spread over the table).
func (s *Server) home(page int64) int {
	return int(uint64(page) * 0x9E3779B97F4A7C15 >> s.shift)
}

// slotOf returns the slot holding page, or the empty slot that ends its
// probe sequence.
func (s *Server) slotOf(page int64) int {
	mask := len(s.slots) - 1
	i := s.home(page)
	for {
		if f := s.slots[i]; f == 0 || s.frames[f].page == page {
			return i
		}
		i = (i + 1) & mask
	}
}

// has reports and optionally refreshes residency of a server page.
func (s *Server) has(page int64, touch bool) bool {
	f := s.slots[s.slotOf(page)]
	if f != 0 && touch {
		s.moveToFront(f)
	}
	return f != 0
}

// moveToFront makes frame f the most recently used.
func (s *Server) moveToFront(f int32) {
	if s.frames[head].next == f {
		return
	}
	s.unlink(f)
	s.pushFront(f)
}

// unlink takes frame f out of the recency list.
func (s *Server) unlink(f int32) {
	fr := &s.frames[f]
	s.frames[fr.prev].next = fr.next
	s.frames[fr.next].prev = fr.prev
}

// pushFront links an unlinked frame in as the most recently used.
func (s *Server) pushFront(f int32) {
	fr, h := &s.frames[f], &s.frames[head]
	fr.prev, fr.next = head, h.next
	s.frames[h.next].prev = f
	h.next = f
}

// insert adds a page to the server cache, evicting LRU.
func (s *Server) insert(page int64) {
	if f := s.slots[s.slotOf(page)]; f != 0 {
		s.moveToFront(f)
		return
	}
	var f int32
	if len(s.frames) <= s.capacity {
		if 2*(len(s.frames)+1) > len(s.slots) {
			s.growSlots()
		}
		f = int32(len(s.frames))
		s.frames = append(s.frames, pageFrame{})
	} else {
		// Full: the LRU page leaves and its frame is taken over.
		f = s.frames[head].prev
		s.unlink(f)
		s.unslot(s.slotOf(s.frames[f].page))
	}
	s.frames[f].page = page
	s.slots[s.slotOf(page)] = f
	s.pushFront(f)
}

// growSlots doubles the slot table and re-enters every cached page.
func (s *Server) growSlots() {
	s.slots = make([]int32, 2*len(s.slots))
	s.shift--
	for f := 1; f < len(s.frames); f++ {
		s.slots[s.slotOf(s.frames[f].page)] = int32(f)
	}
}

// unslot empties slot i and closes the hole: every entry after it in the
// same probe run moves back if the hole lies between its home slot and
// where it sits, so each remaining page is still reached from its hash
// before an empty slot is.
func (s *Server) unslot(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.frames[s.slots[j]].page))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}

// ReadThrough charges one remote read of [off, off+n): RTT, then server
// memory or disk per page, then the wire transfer. The server caches what
// its disk returns. See the package comment for the abort-cost contract
// when the server disk faults mid-read.
func (s *Server) ReadThrough(c *simclock.Clock, off, n int64) error {
	c.Advance(s.cfg.RTT)
	end := off + n
	for cur := off; cur < end; {
		page := cur / s.pageSize
		pageEnd := (page + 1) * s.pageSize
		stop := end
		if stop > pageEnd {
			stop = pageEnd
		}
		if s.has(page, true) {
			s.mem.Read(c, cur, stop-cur)
		} else {
			if err := device.ReadErr(s.disk, c, cur, stop-cur); err != nil {
				return err
			}
			s.insert(page)
		}
		cur = stop
	}
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
	return nil
}

// ReadFresh charges the slow-path cost model — RTT + server disk + wire —
// WITHOUT consulting or populating the server cache: the characterization
// read lmbench calibrates against, which must not warm the server. The
// same abort-cost contract as ReadThrough applies on a disk fault.
func (s *Server) ReadFresh(c *simclock.Clock, off, n int64) error {
	c.Advance(s.cfg.RTT)
	if err := device.ReadErr(s.disk, c, off, n); err != nil {
		return err
	}
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
	return nil
}

// WriteThrough charges one synchronous remote write: RTT, server disk,
// wire. A fault on the server disk aborts before the wire charge and
// surfaces as an error — the write did not happen.
func (s *Server) WriteThrough(c *simclock.Clock, off, n int64) error {
	c.Advance(s.cfg.RTT)
	if err := device.WriteErr(s.disk, c, off, n); err != nil {
		return err
	}
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
	return nil
}

// FastRead charges the fast-path cost model: RTT + server memory + wire —
// what a read satisfied entirely from the server's cache costs.
func (s *Server) FastRead(c *simclock.Clock, off, n int64) {
	c.Advance(s.cfg.RTT)
	s.mem.Read(c, off, n)
	c.Advance(simclock.TransferTime(n, s.cfg.WireBandwidth))
}

// ResetDisk discards the server disk's mechanical state (not its cache).
func (s *Server) ResetDisk() { s.disk.Reset() }

// ServerDevice is a Server registered with a client kernel as a
// device.Device: the mount's home device, or one replica of a fleet. Its
// two read paths are different models on purpose (DESIGN.md, "Wrapping a
// device"): the infallible Read is the calibration path — RTT + server
// disk + wire, never consulting or warming the server cache, what lmbench
// measures to fill the table entry — and the fallible ReadErr is the data
// path, the server's cache-aware read-through, which is what a queued
// client read dispatches. Calibrating through ReadErr would warm the
// server and move every estimate taken afterwards. Writes go
// synchronously to the server disk either way, and a server-disk fault
// reaches the kernel's retry policy through the fallible methods with the
// package's abort-cost contract.
type ServerDevice struct {
	srv  *Server
	info device.Info
}

// NewServerDevice returns the device to register for srv: an NFS-level
// device with the ID, name and size of the server's configured disk.
func NewServerDevice(srv *Server) *ServerDevice {
	d := srv.cfg.ServerDisk
	return &ServerDevice{srv: srv, info: device.Info{ID: d.ID, Name: d.Name, Level: device.LevelNFS, Size: d.Size}}
}

// Info implements device.Device.
func (d *ServerDevice) Info() device.Info { return d.info }

// Read is the calibration path; it has no error channel, and a fault
// during it still costs the time the fallible path would have charged.
func (d *ServerDevice) Read(c *simclock.Clock, off, n int64) {
	//sledlint:allow errflow -- infallible device.Device path: lmbench drives it with no error channel; a fault still charges the fallible path's time
	_ = d.srv.ReadFresh(c, off, n)
}

// ReadErr is the data path.
func (d *ServerDevice) ReadErr(c *simclock.Clock, off, n int64) error {
	return d.srv.ReadThrough(c, off, n)
}

// Write charges a synchronous remote write through the infallible path.
func (d *ServerDevice) Write(c *simclock.Clock, off, n int64) {
	//sledlint:allow errflow -- infallible device.Device path: it charges time but has no error channel; faults surface through WriteErr
	_ = d.srv.WriteThrough(c, off, n)
}

// WriteErr is the path dirty write-back takes, so injected server faults
// are counted by the kernel instead of vanishing.
func (d *ServerDevice) WriteErr(c *simclock.Clock, off, n int64) error {
	return d.srv.WriteThrough(c, off, n)
}

// Reset discards the server disk's mechanical state (the between-trials
// contract; the server cache, like the client cache, survives it).
func (d *ServerDevice) Reset() { d.srv.ResetDisk() }
