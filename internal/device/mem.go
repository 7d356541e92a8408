package device

import "sleds/internal/simclock"

// MemConfig parameterises a primary-memory "device": the cost of touching a
// page that is resident in the file system buffer cache. The paper's
// Table 2 measured 175 ns latency and 48 MB/s copy bandwidth with lmbench.
type MemConfig struct {
	ID        ID
	Name      string
	Latency   simclock.Duration // per-access first-byte cost
	Bandwidth float64           // bytes/sec copy bandwidth
}

// DefaultMemConfig returns the Table 2 memory profile.
func DefaultMemConfig(id ID) MemConfig {
	return MemConfig{
		ID:        id,
		Name:      "mem0",
		Latency:   175 * simclock.Nanosecond,
		Bandwidth: 48 * float64(1<<20),
	}
}

// Mem models primary memory. It has no mechanical state: cost is a fixed
// latency plus size/bandwidth, history-independent.
type Mem struct {
	cfg MemConfig
}

// NewMem builds a memory device from cfg.
func NewMem(cfg MemConfig) *Mem {
	if cfg.Bandwidth <= 0 {
		panic("device: memory bandwidth must be positive")
	}
	return &Mem{cfg: cfg}
}

// Info implements Device.
func (m *Mem) Info() Info {
	return Info{ID: m.cfg.ID, Name: m.cfg.Name, Level: LevelMemory}
}

// Read implements Device.
func (m *Mem) Read(c *simclock.Clock, off, length int64) {
	checkExtent(m.Info(), off, length)
	c.Advance(m.cfg.Latency)
	c.Advance(simclock.TransferTime(length, m.cfg.Bandwidth))
}

// Write implements Device. Memory writes cost the same as reads.
func (m *Mem) Write(c *simclock.Clock, off, length int64) {
	m.Read(c, off, length)
}

// Reset implements Device; memory has no dynamic state.
func (m *Mem) Reset() {}
