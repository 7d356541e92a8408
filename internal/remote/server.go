package remote

import (
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Server models the file server proper — its disk, its memory, and its
// buffer cache — separated from the Mount so the same machinery can back
// a single client mount or one replica in a fleet of servers. All costs
// are charged against the caller's clock: the server owns no time of its
// own, exactly as the characterization devices do.
//
// The disk is a *device.Disk, or a fault injector stacked over it; every
// internal access goes through the fallible device helpers, so a fault
// injected on the server disk surfaces as an error to the client rather
// than being silently absorbed.
type Server struct {
	pageSize int64

	disk device.Device // the server's disk, possibly wrapped by an injector
	mem  *device.Mem

	// cache is the server's buffer cache: the page cache every kernel
	// uses, under LRU, holding one file (id 0) whose pages are server-disk
	// pages. It keeps no data, only residency and recency.
	cache *cache.Cache
}

// NewServer builds a server from cfg whose disk has the given ID and name:
// a registered characterization device and the server's own disk must
// agree on identity, so that faults report the right device.
func NewServer(cfg Config, disk device.ID, name string, pageSize int64) (*Server, error) {
	if cfg.ServerCachePages <= 0 {
		return nil, fmt.Errorf("remote: server cache of %d pages", cfg.ServerCachePages)
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("remote: non-positive page size %d", pageSize)
	}
	diskCfg := device.DefaultDiskConfig(disk)
	diskCfg.Name = name
	return &Server{
		pageSize: pageSize,
		disk:     device.NewDisk(diskCfg),
		mem:      device.NewMem(device.DefaultMemConfig(0)),
		cache:    cache.New(cfg.ServerCachePages, cache.LRU, nil),
	}, nil
}

// CachedPages reports how many pages the server currently caches.
func (s *Server) CachedPages() int { return s.cache.Len() }

// CachedBytes reports how many bytes of [off, off+n) the server's cache
// holds right now, without touching recency — the basis for a client-side
// estimate of what a read through this server would cost.
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
		if s.cache.Contains(cache.Key{Page: page}) {
			cached += stop - cur
		}
		cur = stop
	}
	return cached
}

// ReadThrough charges one remote read of [off, off+n): RTT, then server
// memory or disk per page, then the wire transfer. The server caches what
// its disk returns. See the package comment for the abort-cost contract
// when the server disk faults mid-read.
func (s *Server) ReadThrough(c *simclock.Clock, off, n int64) error {
	c.Advance(RTT)
	end := off + n
	for cur := off; cur < end; {
		page := cur / s.pageSize
		pageEnd := (page + 1) * s.pageSize
		stop := end
		if stop > pageEnd {
			stop = pageEnd
		}
		if _, ok := s.cache.Get(cache.Key{Page: page}); ok {
			s.mem.Read(c, cur, stop-cur)
		} else {
			if err := device.ReadErr(s.disk, c, cur, stop-cur); err != nil {
				return err
			}
			if err := s.cache.Insert(cache.Key{Page: page}, nil, false); err != nil {
				return err
			}
		}
		cur = stop
	}
	c.Advance(simclock.TransferTime(n, wireBandwidth))
	return nil
}

// ReadFresh charges the slow-path cost model — RTT + server disk + wire —
// WITHOUT consulting or populating the server cache: the characterization
// read lmbench calibrates against, which must not warm the server. The
// same abort-cost contract as ReadThrough applies on a disk fault.
func (s *Server) ReadFresh(c *simclock.Clock, off, n int64) error {
	c.Advance(RTT)
	if err := device.ReadErr(s.disk, c, off, n); err != nil {
		return err
	}
	c.Advance(simclock.TransferTime(n, wireBandwidth))
	return nil
}

// WriteThrough charges one synchronous remote write: RTT, server disk,
// wire. A fault on the server disk aborts before the wire charge and
// surfaces as an error — the write did not happen.
func (s *Server) WriteThrough(c *simclock.Clock, off, n int64) error {
	c.Advance(RTT)
	if err := device.WriteErr(s.disk, c, off, n); err != nil {
		return err
	}
	c.Advance(simclock.TransferTime(n, wireBandwidth))
	return nil
}

// FastRead charges the fast-path cost model: RTT + server memory + wire —
// what a read satisfied entirely from the server's cache costs.
func (s *Server) FastRead(c *simclock.Clock, off, n int64) {
	c.Advance(RTT)
	s.mem.Read(c, off, n)
	c.Advance(simclock.TransferTime(n, wireBandwidth))
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
// device with the ID, name and size of the server's disk.
func NewServerDevice(srv *Server) *ServerDevice {
	info := srv.disk.Info()
	info.Level = device.LevelNFS
	return &ServerDevice{srv: srv, info: info}
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
