// Package sleds is a complete, simulation-backed implementation of
// Storage Latency Estimation Descriptors (Van Meter & Gao, "Latency
// Management in Storage Systems", OSDI 2000).
//
// A SLED describes one contiguous section of a file together with the
// estimated latency to its first byte and the bandwidth at which the rest
// will arrive. Applications use the vector of SLEDs for an open file to
// reorder I/O (read cached data first), prune I/O (skip expensive
// retrievals), and report expected retrieval times.
//
// Because the original system is a modified Linux 2.2 kernel measured on
// real devices, this package ships the whole storage stack as a
// deterministic virtual-time simulation: device models (disk, CD-ROM,
// NFS, tape library), a page cache with LRU/CLOCK/FIFO replacement, a VFS
// with fault accounting, an lmbench-style calibrator that fills the
// kernel sleds table at boot, and the SLEDs kernel interface and user
// library on top. The System type bundles a booted machine.
//
//	sys, _ := sleds.NewSystem(sleds.Config{})          // 64 MB machine
//	sys.CreateTextFile("/data/f", sleds.OnDisk, 42, 32<<20)
//	f, _ := sys.Open("/data/f")
//	io.Copy(io.Discard, f)                              // warm the cache
//	v, _ := sys.SLEDs("/data/f")                        // FSLEDS_GET
//	p, _ := sys.NewPicker(f, sleds.PickOptions{})       // pick library
package sleds

import (
	"fmt"

	"sleds/internal/apps/appenv"
	"sleds/internal/cache"
	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/fits"
	"sleds/internal/hsm"
	"sleds/internal/machine"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// Re-exported core types. SLED is the paper's struct sled; a Query
// returns a vector of them.
type (
	// SLED is one file section with retrieval estimates.
	SLED = core.SLED
	// Entry is one row of the kernel sleds table.
	Entry = core.Entry
	// Plan selects the attack plan of TotalDeliveryTime.
	Plan = core.Plan
	// File is an open simulated file descriptor (read/write/seek).
	File = vfs.File
	// Inode is file metadata.
	Inode = vfs.Inode
	// Picker is the pick-library scheduler for one open file.
	Picker = sledlib.Picker
	// PickOptions configures NewPicker (buffer size, record mode,
	// element mode, scheduling order).
	PickOptions = sledlib.Options
	// DeviceID names an attached device.
	DeviceID = device.ID
	// RunStats are the per-run kernel counters (faults, bytes, times).
	RunStats = vfs.RunStats
	// Policy selects the page-cache replacement algorithm.
	Policy = cache.Policy
	// Duration is virtual time in nanoseconds.
	Duration = simclock.Duration
)

// Attack plans for delivery-time estimates.
const (
	PlanLinear = core.PlanLinear
	PlanBest   = core.PlanBest
)

// Cache replacement policies.
const (
	LRU   = cache.LRU
	Clock = cache.Clock
	FIFO  = cache.FIFO
)

// ErrPickFinished is returned by Picker.NextRead when the schedule is
// exhausted.
var ErrPickFinished = sledlib.ErrFinished

// Standard devices attached by NewSystem, addressable by role.
const (
	// OnDisk places a file on the local hard disk (ext2 in the paper).
	OnDisk StandardDevice = iota
	// OnCDROM places a file on the CD-ROM (ISO9660; read-only).
	OnCDROM
	// OnNFS places a file on the NFS mount.
	OnNFS
	// OnTape places a file in the tape library (HSM experiments).
	OnTape
)

// StandardDevice selects one of the devices a default System boots with.
type StandardDevice int

// DeviceNames maps the file-system names the command-line tools accept to devices.
var DeviceNames = map[string]StandardDevice{"ext2": OnDisk, "cdrom": OnCDROM, "nfs": OnNFS, "tape": OnTape}

// Config parameterises a System. The zero value gives the paper's Unix
// utilities machine: 4 KiB pages, ~44 MB of file cache, Table 2 device
// characteristics, LRU replacement.
type Config struct {
	// PageSize is the VM page size (default 4096).
	PageSize int
	// CacheBytes is the memory available to cache file pages (default
	// 44 MiB, the paper's 64 MB machine).
	CacheBytes int64
	// Policy is the replacement policy (default LRU).
	Policy Policy
	// ReadaheadPages adds readahead to demand faults (default 0).
	ReadaheadPages int
	// JitterFrac perturbs I/O times to model background activity
	// (default 0: fully deterministic). JitterSeed seeds it.
	JitterFrac float64
	JitterSeed int64
	// LHEAProfile selects the paper's Table 3 machine (faster memory,
	// slower disk) instead of the Table 2 one.
	LHEAProfile bool
	// HSMStageBytes interposes a migrating tape->disk stager on tape files,
	// with the given staging capacity in bytes (0 disables).
	HSMStageBytes int64
}

// System is a booted simulated machine with a calibrated sleds table.
type System struct {
	k   *vfs.Kernel
	tab *core.Table
	ids [4]device.ID
}

// NewSystem boots a machine: memory + disk + CD-ROM + NFS + tape devices,
// lmbench calibration filling the kernel sleds table, and an empty root
// with /data created.
func NewSystem(cfg Config) (*System, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 44 << 20
	}
	if cfg.CacheBytes < int64(cfg.PageSize) {
		return nil, fmt.Errorf("sleds: cache of %d bytes below one page", cfg.CacheBytes)
	}
	profile := machine.Unix
	if cfg.LHEAProfile {
		profile = machine.LHEA
	}
	m, err := machine.Boot(vfs.Config{
		PageSize:       cfg.PageSize,
		CachePages:     int(cfg.CacheBytes / int64(cfg.PageSize)),
		Policy:         cfg.Policy,
		ReadaheadPages: cfg.ReadaheadPages,
		JitterSeed:     cfg.JitterSeed,
		JitterFrac:     cfg.JitterFrac,
	}, profile)
	if err != nil {
		return nil, err
	}
	s := &System{k: m.K, tab: m.Table, ids: [4]device.ID{m.Disk, m.CDROM, m.NFS, m.Tape}}
	if cfg.HSMStageBytes > 0 {
		if _, err := hsm.New(m.K, hsm.Config{Tape: m.Tape, Disk: m.Disk, Capacity: cfg.HSMStageBytes}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Device resolves a standard device role to its ID.
func (s *System) Device(d StandardDevice) DeviceID {
	if d < 0 || int(d) >= len(s.ids) {
		panic(fmt.Sprintf("sleds: unknown standard device %d", d))
	}
	return s.ids[d]
}

// Kernel exposes the underlying simulated kernel for advanced use
// (custom devices, direct cache inspection).
func (s *System) Kernel() *vfs.Kernel { return s.k }

// Table exposes the kernel sleds table.
func (s *System) Table() *core.Table { return s.tab }

// Now reports the machine's virtual time.
func (s *System) Now() Duration { return s.k.Clock.Now() }

// Stats snapshots the per-run counters; ResetStats zeroes them.
func (s *System) Stats() RunStats { return s.k.RunStats() }

// ResetStats zeroes the per-run counters.
func (s *System) ResetStats() { s.k.ResetRunStats() }

// DropCaches empties the page cache (after writing dirty pages back).
func (s *System) DropCaches() { s.k.DropCaches() }

// MkdirAll creates a directory path.
func (s *System) MkdirAll(path string) error { return s.k.MkdirAll(path) }

// CreateTextFile creates a deterministic pseudo-text file of the given
// size on the device. The same seed always produces the same bytes.
func (s *System) CreateTextFile(path string, on StandardDevice, seed uint64, size int64) error {
	return s.CreateTextFileWithMatches(path, on, seed, size, "")
}

// CreateTextFileWithMatches creates a pseudo-text file with a line
// containing needle spliced in at each of the given byte offsets (the
// generator itself never produces the needle, so these are the only
// occurrences). Used to stage grep experiments. A negative size, a file
// too small for a match line and overlapping match lines are errors.
func (s *System) CreateTextFileWithMatches(path string, on StandardDevice, seed uint64, size int64, needle string, offsets ...int64) error {
	if size < 0 {
		return fmt.Errorf("sleds: negative file size %d", size)
	}
	c := workload.NewText(seed, size, s.k.PageSize())
	for _, off := range offsets {
		if err := workload.TryPlantMatch(c, off, needle); err != nil {
			return err
		}
	}
	return s.create(path, on, c)
}

// CreateFITSImage creates a synthetic FITS image (16-bit pixels) of the
// given dimensions on the device.
func (s *System) CreateFITSImage(path string, on StandardDevice, seed uint64, width, height int) error {
	im, err := fits.NewImage(width, height, 16)
	if err != nil {
		return err
	}
	return s.create(path, on, fits.NewContent(im, seed, s.k.PageSize()))
}

// CreateEmptyFile creates a zero-length writable file on the device.
func (s *System) CreateEmptyFile(path string, on StandardDevice) error {
	return s.create(path, on, workload.New(0, s.k.PageSize(), nil))
}

// create makes a file of content c on the device. An unknown role is an
// error here, where Device panics.
func (s *System) create(path string, on StandardDevice, c *workload.Content) error {
	if on < OnDisk || on > OnTape {
		return fmt.Errorf("sleds: unknown standard device %d", on)
	}
	_, err := s.k.Create(path, s.Device(on), c)
	return err
}

// Remove deletes a file or empty directory.
func (s *System) Remove(path string) error { return s.k.Remove(path) }

// Open opens a file.
func (s *System) Open(path string) (*File, error) { return s.k.Open(path) }

// Stat resolves a path to its inode.
func (s *System) Stat(path string) (*Inode, error) { return s.k.Stat(path) }

// SLEDs performs the FSLEDS_GET query for the file at path: the vector of
// latency/bandwidth descriptors for its current storage state.
func (s *System) SLEDs(path string) ([]SLED, error) {
	n, err := s.k.Stat(path)
	if err != nil {
		return nil, err
	}
	return core.Query(s.k, s.tab, n)
}

// NewPicker builds a pick-library schedule for an open file
// (sleds_pick_init).
func (s *System) NewPicker(f *File, opts PickOptions) (*Picker, error) {
	return sledlib.PickInit(s.k, s.tab, f, opts)
}

// TotalDeliveryTime estimates seconds to read the whole file under the
// given plan (sleds_total_delivery_time).
func (s *System) TotalDeliveryTime(path string, plan Plan) (float64, error) {
	n, err := s.k.Stat(path)
	if err != nil {
		return 0, err
	}
	return sledlib.TotalDeliveryTime(s.k, s.tab, n, plan)
}

// WillNeed discloses that [off, off+length) of the open file will be read
// soon; the kernel schedules asynchronous prefetch on the device's
// background timeline (the hints flow of the paper's Figure 1, provided
// for comparison and combination with SLEDs).
func (s *System) WillNeed(f *File, off, length int64) {
	f.WillNeed(off, length)
}

// DontNeed discloses that [off, off+length) will not be reused; the
// kernel may drop those pages immediately.
func (s *System) DontNeed(f *File, off, length int64) {
	f.DontNeed(off, length)
}

// Env builds the application environment used by the ported utilities in
// internal/apps (wc, grep, find, gmc, fimhisto, fimgbin).
func (s *System) Env(useSLEDs bool) *appenv.Env {
	return &appenv.Env{K: s.k, Table: s.tab, UseSLEDs: useSLEDs}
}
