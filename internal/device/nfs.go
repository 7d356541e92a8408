package device

import (
	"fmt"

	"sleds/internal/simclock"
)

// NFSConfig parameterises the NFS "device": the client's view of a file
// served by a remote machine. The paper characterises NFS exactly as it
// does local devices — by the lmbench-measured first-byte latency and
// sustained bandwidth of the mount (Table 2: 270 ms, 1.0 MB/s) — so the
// model here is a characterization model: a per-request cost that is paid
// in full on non-sequential requests (server-side positioning plus
// protocol round trips) and a much smaller per-request cost while
// streaming (the server's read-ahead hides positioning).
type NFSConfig struct {
	ID   ID
	Name string
	Size int64

	// RandomLatency is the first-byte cost of a request that does not
	// continue the previous one: protocol RTTs plus server positioning.
	RandomLatency simclock.Duration
	// StreamLatency is the per-request overhead while streaming.
	StreamLatency simclock.Duration
	// Bandwidth is the sustained wire+server transfer rate.
	Bandwidth float64
	// WritePenalty is added to every write request (synchronous NFS v2
	// writes must be committed to the server's disk).
	WritePenalty simclock.Duration
}

// DefaultNFSConfig returns a profile matching the paper's Table 2 NFS row
// (~270 ms first-byte latency, ~1.0 MB/s): a late-90s NFS v2 mount over
// 10 Mb/s ethernet with synchronous server writes.
func DefaultNFSConfig(id ID) NFSConfig {
	return NFSConfig{
		ID:            id,
		Name:          "nfs0",
		Size:          8 << 30,
		RandomLatency: 270 * simclock.Millisecond,
		StreamLatency: 1500 * simclock.Microsecond,
		Bandwidth:     1.0 * float64(1<<20),
		WritePenalty:  25 * simclock.Millisecond,
	}
}

// NFS models the client view of an NFS mount.
type NFS struct {
	cfg     NFSConfig
	lastEnd int64
}

// NewNFS builds an NFS device from cfg.
func NewNFS(cfg NFSConfig) *NFS {
	if cfg.Bandwidth <= 0 {
		panic(fmt.Sprintf("device: nfs %q needs positive bandwidth", cfg.Name))
	}
	return &NFS{cfg: cfg, lastEnd: -1}
}

// Info implements Device.
func (d *NFS) Info() Info {
	return Info{ID: d.cfg.ID, Name: d.cfg.Name, Level: LevelNFS, Size: d.cfg.Size}
}

// Read implements Device.
func (d *NFS) Read(c *simclock.Clock, off, length int64) {
	checkExtent(d.Info(), off, length)
	if off == d.lastEnd && d.lastEnd >= 0 {
		c.Advance(d.cfg.StreamLatency)
	} else {
		c.Advance(d.cfg.RandomLatency)
	}
	c.Advance(simclock.TransferTime(length, d.cfg.Bandwidth))
	d.lastEnd = off + length
}

// Write implements Device.
func (d *NFS) Write(c *simclock.Clock, off, length int64) {
	checkExtent(d.Info(), off, length)
	if off == d.lastEnd && d.lastEnd >= 0 {
		c.Advance(d.cfg.StreamLatency)
	} else {
		c.Advance(d.cfg.RandomLatency)
	}
	c.Advance(d.cfg.WritePenalty)
	c.Advance(simclock.TransferTime(length, d.cfg.Bandwidth))
	d.lastEnd = off + length
}

// Reset implements Device.
func (d *NFS) Reset() { d.lastEnd = -1 }
