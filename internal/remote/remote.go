// Package remote implements SLEDs across a network: the paper's §2
// proposal that "SLEDs be the vocabulary of communication between clients
// and servers as well as between applications and operating systems".
//
// A Mount models a file server with its own buffer cache reached over a
// network link. Unlike the flat NFS characterization device (one latency,
// one bandwidth for the whole mount, as in the paper's Table 2), the
// Mount distinguishes, per page, whether the server would satisfy a read
// from its RAM or from its disk — and exposes that distinction to client
// SLED queries through two characterization sub-devices:
//
//	remote/fast: RTT + server memory + wire transfer
//	remote/slow: RTT + server disk access + wire transfer
//
// The client kernel's FSLEDS_GET then reports three levels for a remote
// file: client RAM, server RAM (cheap network), server disk (expensive
// network). Applications reorder across all three with the ordinary pick
// library — nothing else changes, which is the point of the proposal.
//
// The Mount plugs into the client kernel exactly as the HSM stager does:
// demand fetches flow through Fetch, per-page level queries through
// DeviceFor. The server proper (disk, memory, buffer cache) lives in the
// Server type, which internal/fleet reuses to model each replica of a
// replicated mount.
//
// # Abort-cost contract
//
// When the server's disk faults partway through a remote access, the
// request aborts with the full RTT already charged (the request did reach
// the server) plus whatever server-side memory and disk time accrued
// before the fault, but WITHOUT the wire-transfer charge: the bytes after
// the fault never cross the wire, and partial wire time for bytes before
// it is not modelled. A retry therefore re-pays the RTT from scratch.
// This holds for demand fetches (ReadThrough), characterization reads
// (ReadFresh), and synchronous writes (WriteThrough) alike.
package remote

import (
	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// The server and its link: a department file server on switched 100 Mbit
// ethernet, with a Table 2-class disk (device.DefaultDiskConfig) and
// memory (device.DefaultMemConfig). RTT is the request round trip,
// protocol and wire latency together; wireBandwidth is the transfer rate
// in bytes/sec. With these numbers the server-cached level sits two
// orders of magnitude below the server-disk level for small reads — the
// distinction the flat NFS table entry cannot express.
const (
	RTT           = 400 * simclock.Microsecond
	wireBandwidth = 8 * float64(1<<20)
)

// Config parameterises the mount.
type Config struct {
	// ServerCachePages is the size of the server's buffer cache.
	ServerCachePages int
}

// DefaultConfig returns a server with a generous cache (16 MiB of 4 KiB
// pages).
func DefaultConfig() Config {
	return Config{ServerCachePages: 16 << 20 / 4096}
}

// Mount is the client's view of the remote server.
type Mount struct {
	k   *vfs.Kernel
	srv *Server

	fastID device.ID // characterization device: server-cached reads
	slowID device.ID // characterization device: server-disk reads; remote files live on it

	pageSize int64
}

// NewMount attaches the mount's characterization devices to the client
// kernel, registers the mount as the stager for remote files, and returns
// it. Files served by this mount must be created on Mount.Device().
func NewMount(k *vfs.Kernel, cfg Config) (*Mount, error) {
	m := &Mount{
		k:        k,
		pageSize: int64(k.PageSize()),
	}
	srv, err := NewServer(cfg, device.ID(k.Devices.Len()+1), "remote/slow", m.pageSize)
	if err != nil {
		return nil, err
	}
	m.srv = srv
	m.fastID = k.AttachDevice(&fastPath{m: m, id: device.ID(k.Devices.Len())})
	m.slowID = k.AttachDevice(NewServerDevice(srv))

	k.SetStager(m, m.slowID)
	return m, nil
}

// Device returns the device ID remote files must be created on.
func (m *Mount) Device() device.ID { return m.slowID }

// Fetch implements vfs.Stager.
func (m *Mount) Fetch(ino *vfs.Inode, devOff, length int64) error {
	return m.srv.ReadThrough(m.k.Clock, devOff, length)
}

// DeviceFor implements vfs.Stager: server-cached pages report the fast
// characterization device, the rest the slow one.
func (m *Mount) DeviceFor(ino *vfs.Inode, devOff int64) device.ID {
	if m.srv.cache.Contains(cache.Key{Page: devOff / m.pageSize}) {
		return m.fastID
	}
	return m.slowID
}

// fastPath is the characterization device for server-cached reads: what
// lmbench measures to fill the client's table entry for that level.
type fastPath struct {
	m  *Mount
	id device.ID
}

func (f *fastPath) Info() device.Info {
	return device.Info{ID: f.id, Name: "remote/fast", Level: device.LevelNFS, Size: f.m.srv.disk.Info().Size}
}

// Read charges the fast-path cost model: RTT + server memory + wire.
func (f *fastPath) Read(c *simclock.Clock, off, n int64) {
	f.m.srv.FastRead(c, off, n)
}

func (f *fastPath) Write(c *simclock.Clock, off, n int64) { f.Read(c, off, n) }
func (f *fastPath) Reset()                                {}
