package device

import (
	"fmt"

	"sleds/internal/simclock"
)

// TapeLibraryConfig parameterises a tape library (autochanger): a robot,
// a set of drives, and a set of cartridges. The library presents a single
// linear address space of NumCartridges * CartridgeSize bytes; an access
// whose cartridge is not mounted pays robot exchange, load/thread, and
// locate costs. This is the bottom level of the HSM hierarchy the paper
// repeatedly points at (latency variation "by as much as eleven orders of
// magnitude ... up to hundreds of seconds for tape mount and seek").
type TapeLibraryConfig struct {
	ID   ID
	Name string

	NumDrives     int
	NumCartridges int
	CartridgeSize int64

	RobotTime  simclock.Duration // move a cartridge between slot and drive
	LoadTime   simclock.Duration // load + thread after insertion
	UnloadTime simclock.Duration // rewind + unload before removal
	// LocateRate is the positioning speed along the tape in bytes/sec of
	// positional distance (serpentine locate, not read speed).
	LocateRate float64
	Bandwidth  float64 // streaming read/write rate
}

// DefaultTapeLibraryConfig models a small DLT library: 2 drives, 20 x 20 GB
// cartridges, ~40 s exchange, full-cartridge locate on the order of a
// minute, 5 MB/s streaming.
func DefaultTapeLibraryConfig(id ID) TapeLibraryConfig {
	return TapeLibraryConfig{
		ID:            id,
		Name:          "tape0",
		NumDrives:     2,
		NumCartridges: 20,
		CartridgeSize: 20 << 30,
		RobotTime:     12 * simclock.Second,
		LoadTime:      28 * simclock.Second,
		UnloadTime:    21 * simclock.Second,
		LocateRate:    300 * float64(1<<20),
		Bandwidth:     5 * float64(1<<20),
	}
}

// driveState is the dynamic state of one tape drive.
type driveState struct {
	cartridge int   // mounted cartridge index, -1 if empty
	pos       int64 // head position within the cartridge
	lastUsed  simclock.Duration
}

// TapeLibrary models the autochanger plus drives.
type TapeLibrary struct {
	cfg    TapeLibraryConfig
	drives []driveState
}

// NewTapeLibrary builds a library from cfg.
func NewTapeLibrary(cfg TapeLibraryConfig) *TapeLibrary {
	if cfg.NumDrives <= 0 || cfg.NumCartridges <= 0 || cfg.CartridgeSize <= 0 {
		panic(fmt.Sprintf("device: tape library %q needs positive drives/cartridges/size", cfg.Name))
	}
	if cfg.Bandwidth <= 0 || cfg.LocateRate <= 0 {
		panic(fmt.Sprintf("device: tape library %q needs positive rates", cfg.Name))
	}
	t := &TapeLibrary{cfg: cfg}
	t.Reset()
	return t
}

// Info implements Device.
func (t *TapeLibrary) Info() Info {
	return Info{
		ID:        t.cfg.ID,
		Name:      t.cfg.Name,
		Level:     LevelTape,
		Size:      int64(t.cfg.NumCartridges) * t.cfg.CartridgeSize,
		ChunkSize: t.cfg.CartridgeSize,
	}
}

// ChunkSize reports the cartridge size. The VFS reads Info().ChunkSize;
// this method stays only because cmd/sledsperf's frozen
// TestTimedDeviceKeepsMarkers asserts it.
func (t *TapeLibrary) ChunkSize() int64 { return t.cfg.CartridgeSize }

// CartridgeOf maps a library-linear byte offset to its cartridge index.
func (t *TapeLibrary) CartridgeOf(off int64) int {
	return int(off / t.cfg.CartridgeSize)
}

// ensureMounted makes the cartridge available in some drive, charging
// exchange costs, and returns the drive index.
func (t *TapeLibrary) ensureMounted(c *simclock.Clock, cart int) int {
	for i, d := range t.drives {
		if d.cartridge == cart {
			return i
		}
	}
	// Pick an empty drive, else the least recently used.
	victim := -1
	for i, d := range t.drives {
		if d.cartridge == -1 {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i, d := range t.drives {
			if d.lastUsed < t.drives[victim].lastUsed {
				victim = i
			}
		}
		c.Advance(t.cfg.UnloadTime)
		c.Advance(t.cfg.RobotTime) // return old cartridge to its slot
	}
	c.Advance(t.cfg.RobotTime) // fetch new cartridge
	c.Advance(t.cfg.LoadTime)
	t.drives[victim] = driveState{cartridge: cart, pos: 0}
	return victim
}

// access charges mount, locate and transfer for one request. Requests must
// not cross a cartridge boundary; the HSM layer allocates within
// cartridges, so a crossing indicates a layout bug and panics.
func (t *TapeLibrary) access(c *simclock.Clock, off, length int64) {
	checkExtent(t.Info(), off, length)
	cart := t.CartridgeOf(off)
	tapeOff := off - int64(cart)*t.cfg.CartridgeSize
	if length > 0 && t.CartridgeOf(off+length-1) != cart {
		panic(fmt.Sprintf("device: tape access [%d,%d) crosses cartridge boundary", off, off+length))
	}
	di := t.ensureMounted(c, cart)
	d := &t.drives[di]

	dist := tapeOff - d.pos
	if dist < 0 {
		dist = -dist
	}
	if dist > 0 {
		c.Advance(simclock.TransferTime(dist, t.cfg.LocateRate))
	}
	c.Advance(simclock.TransferTime(length, t.cfg.Bandwidth))
	d.pos = tapeOff + length
	d.lastUsed = c.Now()
}

// Read implements Device.
func (t *TapeLibrary) Read(c *simclock.Clock, off, length int64) { t.access(c, off, length) }

// Write implements Device. Tape writes stream at the same rate as reads.
func (t *TapeLibrary) Write(c *simclock.Clock, off, length int64) { t.access(c, off, length) }

// Reset implements Device: all drives are emptied and positions cleared.
func (t *TapeLibrary) Reset() {
	t.drives = make([]driveState, t.cfg.NumDrives)
	for i := range t.drives {
		t.drives[i].cartridge = -1
	}
}
