package device

import (
	"fmt"
	"math"

	"sleds/internal/simclock"
)

// DiskConfig parameterises the hard disk model. The model follows the
// shape of Ruemmler & Wilkes' "An introduction to disk drive modeling"
// (cited by the paper for improving SLED accuracy): a three-term seek
// curve, rotational latency derived from the platter phase at the virtual
// instant of the access, zoned transfer rates, and per-request controller
// overhead. Sequential continuation of the previous access streams without
// repositioning.
type DiskConfig struct {
	ID   ID
	Name string
	Size int64 // capacity in bytes

	Cylinders int
	RPM       float64

	// Seek curve anchors: time to move one cylinder, the mean seek
	// (measured at the conventional mean distance of one third of the
	// cylinders), and the full-stroke seek.
	SeekMin simclock.Duration
	SeekAvg simclock.Duration
	SeekMax simclock.Duration

	// Zoned transfer rates, linearly interpolated from the outermost
	// cylinder (fastest) to the innermost (slowest).
	OuterBandwidth float64 // bytes/sec at cylinder 0
	InnerBandwidth float64 // bytes/sec at the last cylinder

	ControllerOverhead simclock.Duration // per request
	CylinderSwitch     simclock.Duration // per cylinder boundary crossed while streaming
	WriteSettle        simclock.Duration // extra cost per write request
}

// DefaultDiskConfig returns a profile tuned so that an lmbench-style probe
// measures approximately the paper's Table 2 disk row: ~18 ms random
// first-byte latency and ~9 MB/s streaming bandwidth. (A 5400 RPM drive
// with a 12 ms mean seek: 12 + 5.6 half-rotation + overhead ≈ 18 ms.)
func DefaultDiskConfig(id ID) DiskConfig {
	return DiskConfig{
		ID:                 id,
		Name:               "hda",
		Size:               4 << 30,
		Cylinders:          8192,
		RPM:                5400,
		SeekMin:            1200 * simclock.Microsecond,
		SeekAvg:            12 * simclock.Millisecond,
		SeekMax:            22 * simclock.Millisecond,
		OuterBandwidth:     11 * float64(1<<20),
		InnerBandwidth:     7 * float64(1<<20),
		ControllerOverhead: 500 * simclock.Microsecond,
		CylinderSwitch:     900 * simclock.Microsecond,
		WriteSettle:        1300 * simclock.Microsecond,
	}
}

// Disk is the hard-disk device model.
type Disk struct {
	cfg      DiskConfig
	rotation simclock.Duration // one revolution
	perCyl   int64             // bytes per cylinder

	// seek curve coefficients: t(d) = a + b*sqrt(d) + c*d for d >= 1
	a, b, c float64

	// dynamic state
	curCyl  int
	lastEnd int64 // device offset one past the previous access, -1 if none
}

// NewDisk builds a disk from cfg, fitting the seek curve through the three
// anchor points.
func NewDisk(cfg DiskConfig) *Disk {
	if cfg.Size <= 0 || cfg.Cylinders <= 0 {
		panic(fmt.Sprintf("device: disk %q needs positive size and cylinders", cfg.Name))
	}
	if cfg.RPM <= 0 {
		panic(fmt.Sprintf("device: disk %q needs positive RPM", cfg.Name))
	}
	if cfg.OuterBandwidth <= 0 || cfg.InnerBandwidth <= 0 {
		panic(fmt.Sprintf("device: disk %q needs positive bandwidths", cfg.Name))
	}
	d := &Disk{
		cfg:      cfg,
		rotation: simclock.Duration(60 * float64(simclock.Second) / cfg.RPM),
		perCyl:   cfg.Size / int64(cfg.Cylinders),
		lastEnd:  -1,
	}
	if d.perCyl == 0 {
		panic(fmt.Sprintf("device: disk %q has more cylinders than bytes", cfg.Name))
	}
	d.fitSeekCurve()
	return d
}

// fitSeekCurve solves for (a, b, c) so that the curve passes through the
// configured (1, SeekMin), (Cylinders/3, SeekAvg), (Cylinders-1, SeekMax)
// anchors using Cramer's rule on the 3x3 system with basis [1, sqrt(d), d].
func (d *Disk) fitSeekCurve() {
	d1 := 1.0
	d2 := math.Max(2, float64(d.cfg.Cylinders)/3)
	d3 := math.Max(3, float64(d.cfg.Cylinders-1))
	t1 := float64(d.cfg.SeekMin)
	t2 := float64(d.cfg.SeekAvg)
	t3 := float64(d.cfg.SeekMax)

	m := [3][3]float64{
		{1, math.Sqrt(d1), d1},
		{1, math.Sqrt(d2), d2},
		{1, math.Sqrt(d3), d3},
	}
	det := func(m [3][3]float64) float64 {
		return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
			m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
			m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	}
	den := det(m)
	if den == 0 {
		panic(fmt.Sprintf("device: disk %q seek anchors degenerate", d.cfg.Name))
	}
	col := func(i int, t [3]float64) [3][3]float64 {
		r := m
		for row := 0; row < 3; row++ {
			r[row][i] = t[row]
		}
		return r
	}
	ts := [3]float64{t1, t2, t3}
	d.a = det(col(0, ts)) / den
	d.b = det(col(1, ts)) / den
	d.c = det(col(2, ts)) / den
}

// Info implements Device.
func (d *Disk) Info() Info {
	return Info{ID: d.cfg.ID, Name: d.cfg.Name, Level: LevelDisk, Size: d.cfg.Size}
}

// cylinderOf maps a byte offset to its cylinder.
func (d *Disk) cylinderOf(off int64) int {
	cyl := int(off / d.perCyl)
	if cyl >= d.cfg.Cylinders {
		cyl = d.cfg.Cylinders - 1
	}
	return cyl
}

// SeekTime returns the modelled time to move the head dist cylinders.
// Exposed for tests and for technology-aware SLED extensions.
func (d *Disk) SeekTime(dist int) simclock.Duration {
	if dist <= 0 {
		return 0
	}
	fd := float64(dist)
	t := d.a + d.b*math.Sqrt(fd) + d.c*fd
	if t < 0 {
		t = 0
	}
	return simclock.Duration(t)
}

// bandwidthAt returns the zoned transfer rate at the given cylinder.
func (d *Disk) bandwidthAt(cyl int) float64 {
	if d.cfg.Cylinders == 1 {
		return d.cfg.OuterBandwidth
	}
	frac := float64(cyl) / float64(d.cfg.Cylinders-1)
	return d.cfg.OuterBandwidth + frac*(d.cfg.InnerBandwidth-d.cfg.OuterBandwidth)
}

// rotationalDelay returns the time until the sector at off rotates under
// the head, given the platter phase at virtual time now. The target angle
// is the offset's position within its cylinder.
func (d *Disk) rotationalDelay(now simclock.Duration, off int64) simclock.Duration {
	if d.rotation <= 0 {
		return 0
	}
	cur := float64(now%d.rotation) / float64(d.rotation)
	target := float64(off%d.perCyl) / float64(d.perCyl)
	diff := target - cur
	if diff < 0 {
		diff++
	}
	return simclock.Duration(diff * float64(d.rotation))
}

// access charges positioning plus transfer for one request.
func (d *Disk) access(c *simclock.Clock, off, length int64, write bool) {
	checkExtent(d.Info(), off, length)
	c.Advance(d.cfg.ControllerOverhead)

	cyl := d.cylinderOf(off)
	sequential := off == d.lastEnd && d.lastEnd >= 0
	if !sequential {
		if dist := cyl - d.curCyl; dist != 0 {
			if dist < 0 {
				dist = -dist
			}
			c.Advance(d.SeekTime(dist))
		}
		c.Advance(d.rotationalDelay(c.Now(), off))
	}

	// Transfer, charging a cylinder-switch penalty at each boundary.
	remaining := length
	pos := off
	for remaining > 0 {
		curCyl := d.cylinderOf(pos)
		cylEnd := (int64(curCyl) + 1) * d.perCyl
		n := remaining
		if pos+n > cylEnd {
			n = cylEnd - pos
		}
		c.Advance(simclock.TransferTime(n, d.bandwidthAt(curCyl)))
		pos += n
		remaining -= n
		if remaining > 0 {
			c.Advance(d.cfg.CylinderSwitch)
		}
	}

	// Head settle after the written sectors pass under the head; charged
	// post-transfer so it cannot hide inside the rotational wait.
	if write {
		c.Advance(d.cfg.WriteSettle)
	}

	d.curCyl = d.cylinderOf(off + length - 1)
	if length == 0 {
		d.curCyl = cyl
	}
	d.lastEnd = off + length
}

// Read implements Device.
func (d *Disk) Read(c *simclock.Clock, off, length int64) { d.access(c, off, length, false) }

// Write implements Device.
func (d *Disk) Write(c *simclock.Clock, off, length int64) { d.access(c, off, length, true) }

// Reset implements Device: the head returns to cylinder 0 and sequential
// history is cleared.
func (d *Disk) Reset() {
	d.curCyl = 0
	d.lastEnd = -1
}
