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

// Config parameterises the mount.
type Config struct {
	// RTT is the request round-trip time (protocol + wire latency).
	RTT simclock.Duration
	// WireBandwidth is the network transfer rate in bytes/sec.
	WireBandwidth float64
	// ServerDisk configures the server's disk. ID is overwritten.
	ServerDisk device.DiskConfig
	// ServerMem configures the server's memory. ID is overwritten.
	ServerMem device.MemConfig
	// ServerCachePages is the size of the server's buffer cache.
	ServerCachePages int
}

// DefaultConfig returns a department file server on switched 100 Mbit
// ethernet: 400 us request RTT, ~8 MB/s wire, a Table 2-class disk and a
// generous cache. With these numbers the server-cached level sits two
// orders of magnitude below the server-disk level for small reads — the
// distinction the flat NFS table entry cannot express.
func DefaultConfig() Config {
	return Config{
		RTT:              400 * simclock.Microsecond,
		WireBandwidth:    8 * float64(1<<20),
		ServerDisk:       device.DefaultDiskConfig(0),
		ServerMem:        device.DefaultMemConfig(0),
		ServerCachePages: 16 << 20 / 4096,
	}
}

// Mount is the client's view of the remote server.
type Mount struct {
	k   *vfs.Kernel
	cfg Config
	srv *Server

	fastID device.ID // characterization device: server-cached reads
	slowID device.ID // characterization device: server-disk reads
	homeID device.ID // the device remote files are created on (== slowID)

	pageSize int64
}

// NewMount attaches the mount's characterization devices to the client
// kernel, registers the mount as the stager for remote files, and returns
// it. Files served by this mount must be created on Mount.Device().
func NewMount(k *vfs.Kernel, cfg Config) (*Mount, error) {
	m := &Mount{
		k:        k,
		cfg:      cfg,
		pageSize: int64(k.PageSize()),
	}
	memCfg := cfg.ServerMem
	memCfg.ID = device.ID(k.Devices.Len())
	memCfg.Name = "remote/fast"
	fast := &fastPath{m: m, id: memCfg.ID}
	m.fastID = k.AttachDevice(fast)

	diskCfg := cfg.ServerDisk
	diskCfg.ID = device.ID(k.Devices.Len())
	diskCfg.Name = "remote/slow"
	srvCfg := cfg
	srvCfg.ServerDisk = diskCfg
	srv, err := NewServer(srvCfg, m.pageSize)
	if err != nil {
		return nil, err
	}
	m.srv = srv
	m.slowID = k.AttachDevice(NewServerDevice(srv))
	m.homeID = m.slowID

	k.SetStager(m, m.homeID)
	return m, nil
}

// Device returns the device ID remote files must be created on.
func (m *Mount) Device() device.ID { return m.homeID }

// Server returns the server behind the mount.
func (m *Mount) Server() *Server { return m.srv }

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
	return device.Info{ID: f.id, Name: "remote/fast", Level: device.LevelNFS, Size: f.m.cfg.ServerDisk.Size}
}

// Read charges the fast-path cost model: RTT + server memory + wire.
func (f *fastPath) Read(c *simclock.Clock, off, n int64) {
	f.m.srv.FastRead(c, off, n)
}

func (f *fastPath) Write(c *simclock.Clock, off, n int64) { f.Read(c, off, n) }
func (f *fastPath) Reset()                                {}
