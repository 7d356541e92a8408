package device

import (
	"fmt"
	"math"

	"sleds/internal/simclock"
)

// CDROMConfig parameterises the CD-ROM drive model. CD-ROM access is
// dominated by long seeks plus the constant-linear-velocity spindle speed
// adjustment after a seek; streaming reads then proceed at the drive's
// transfer rate. The paper's Table 2 measured 130 ms latency and 2.8 MB/s.
type CDROMConfig struct {
	ID   ID
	Name string
	Size int64

	// SeekMin/SeekAvg/SeekMax anchor a square-root seek curve over the
	// disc radius (expressed in bytes of linear address distance).
	SeekMin simclock.Duration
	SeekAvg simclock.Duration
	SeekMax simclock.Duration

	// SpinAdjust is the CLV spindle-speed settle charged after any seek.
	SpinAdjust simclock.Duration

	Bandwidth          float64 // bytes/sec streaming
	ControllerOverhead simclock.Duration
}

// DefaultCDROMConfig returns a profile tuned so an lmbench-style probe
// measures roughly Table 2's CD-ROM row (~130 ms, ~2.8 MB/s): a 650 MB
// disc in a mid-1990s 18x-class drive.
func DefaultCDROMConfig(id ID) CDROMConfig {
	return CDROMConfig{
		ID:                 id,
		Name:               "cdrom0",
		Size:               650 << 20,
		SeekMin:            25 * simclock.Millisecond,
		SeekAvg:            95 * simclock.Millisecond,
		SeekMax:            180 * simclock.Millisecond,
		SpinAdjust:         30 * simclock.Millisecond,
		Bandwidth:          2.8 * float64(1<<20),
		ControllerOverhead: 2 * simclock.Millisecond,
	}
}

// CDROM models a CD-ROM drive. It is read-only: Write panics.
type CDROM struct {
	cfg     CDROMConfig
	lastEnd int64
}

// NewCDROM builds a CD-ROM drive from cfg.
func NewCDROM(cfg CDROMConfig) *CDROM {
	if cfg.Size <= 0 {
		panic(fmt.Sprintf("device: cdrom %q needs positive size", cfg.Name))
	}
	if cfg.Bandwidth <= 0 {
		panic(fmt.Sprintf("device: cdrom %q needs positive bandwidth", cfg.Name))
	}
	return &CDROM{cfg: cfg, lastEnd: -1}
}

// Info implements Device.
func (d *CDROM) Info() Info {
	return Info{ID: d.cfg.ID, Name: d.cfg.Name, Level: LevelCDROM, Size: d.cfg.Size, ReadOnly: true}
}

// seekTime interpolates the seek curve over normalized distance using the
// same sqrt-dominated shape as the disk model: t = min + (avg-min) *
// blend(sqrt) fitted through the average at one-third stroke.
func (d *CDROM) seekTime(dist int64) simclock.Duration {
	if dist <= 0 {
		return 0
	}
	frac := float64(dist) / float64(d.cfg.Size)
	if frac > 1 {
		frac = 1
	}
	// Normalise so that seekTime(size/3) == SeekAvg and seekTime(size) ==
	// SeekMax: t = min + alpha*sqrt(frac) + beta*frac.
	// Solve the 2x2 system at frac=1/3 and frac=1.
	s1 := math.Sqrt(1.0 / 3.0)
	tAvg := float64(d.cfg.SeekAvg - d.cfg.SeekMin)
	tMax := float64(d.cfg.SeekMax - d.cfg.SeekMin)
	den := s1 - 1.0/3.0
	alpha := (tAvg - tMax/3.0) / den
	beta := tMax - alpha
	t := float64(d.cfg.SeekMin) + alpha*math.Sqrt(frac) + beta*frac
	if t < float64(d.cfg.SeekMin) {
		t = float64(d.cfg.SeekMin)
	}
	return simclock.Duration(t)
}

// Read implements Device.
func (d *CDROM) Read(c *simclock.Clock, off, length int64) {
	checkExtent(d.Info(), off, length)
	c.Advance(d.cfg.ControllerOverhead)
	if off != d.lastEnd {
		dist := off - d.lastEnd
		if d.lastEnd < 0 {
			dist = off
		}
		if dist < 0 {
			dist = -dist
		}
		if dist == 0 {
			dist = 1
		}
		c.Advance(d.seekTime(dist))
		c.Advance(d.cfg.SpinAdjust)
	}
	c.Advance(simclock.TransferTime(length, d.cfg.Bandwidth))
	d.lastEnd = off + length
}

// ReadOnly reports that CD-ROM media cannot be written. The VFS reads
// Info().ReadOnly; this method stays only because cmd/sledsperf's frozen
// TestTimedDeviceKeepsMarkers asserts it.
func (d *CDROM) ReadOnly() bool { return true }

// Write implements Device. CD-ROMs are read-only media.
func (d *CDROM) Write(c *simclock.Clock, off, length int64) {
	panic(fmt.Sprintf("device: write to read-only CD-ROM %q", d.cfg.Name))
}

// Reset implements Device.
func (d *CDROM) Reset() { d.lastEnd = -1 }
