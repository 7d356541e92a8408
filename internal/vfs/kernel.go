// Package vfs implements the simulated kernel's file layer: a rooted
// directory tree of inodes whose data lives on simulated devices
// (internal/device), read and written page-at-a-time through the buffer
// cache (internal/cache), with all costs charged to a virtual clock.
//
// This is the substrate the paper modified: its SLEDs changes live in the
// Linux VFS layer, "independent of the on-disk data structure of ext2 or
// ISO9660". Mirroring that, files here are device-independent; the device
// a file lives on determines retrieval cost, nothing else.
//
// The kernel is single-threaded (one logical CPU, as on the paper's test
// machines); no locking.
package vfs

import (
	"errors"
	"fmt"

	"sleds/internal/cache"
	"sleds/internal/device"
	"sleds/internal/simclock"
)

// Sentinel errors returned by path and file operations.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExist    = errors.New("file already exists")
	ErrIsDir    = errors.New("is a directory")
	ErrNotDir   = errors.New("not a directory")
	ErrClosed   = errors.New("file already closed")
	ErrReadOnly = errors.New("read-only device")
	ErrNoSpace  = errors.New("no space left on device")
	// ErrIO is surfaced (wrapped, EIO-style) when a device access still
	// fails after the retry policy is exhausted. Check with errors.Is.
	ErrIO = errors.New("input/output error")
)

// Ino is a kernel-wide unique inode number.
type Ino uint64

// Config parameterises the kernel.
type Config struct {
	// PageSize is the VM page size; the paper's machines used 4 KiB.
	PageSize int
	// CachePages is the number of page frames available to cache file
	// pages (the paper's 64 MB machine had roughly 44 MB of them).
	CachePages int
	// Policy selects the replacement policy (default LRU).
	Policy cache.Policy
	// ReadaheadPages is how many extra pages a demand fault pulls in
	// (default 0: Figure 9's fault counts indicate demand paging).
	ReadaheadPages int
	// MemDevice is the device whose cost model is charged for cache-hit
	// copies to user space. Required.
	MemDevice device.Device
	// JitterSeed/JitterFrac perturb device I/O times to model background
	// activity; frac 0 disables.
	JitterSeed int64
	JitterFrac float64
	// HostMem is the arena host memory comes from; nil: the kernel's own.
	HostMem *HostMem
}

// RunStats counts the activity of one measured run (between ResetRunStats
// and a later snapshot). Faults corresponds to what the paper's `time`
// command reports: demand reads that had to go to a device.
type RunStats struct {
	Faults          int64 // demand-missed pages read from a device
	ReadaheadPages  int64 // additional pages pulled in by readahead
	PagesWrittenDev int64 // dirty pages written back to a device
	CacheHits       int64
	BytesRead       int64
	BytesWritten    int64
	IOWait          simclock.Duration
	CPUTime         simclock.Duration

	// Asynchronous prefetch (the hints substrate):
	PrefetchIssued  int64 // pages scheduled on background device timelines
	PrefetchedPages int64 // demand accesses served by a completed prefetch
	PrefetchWaits   int64 // demand accesses that waited for in-flight I/O

	// Fault handling (the internal/faults substrate):
	DeviceFaults  int64             // failed device attempts observed
	Retries       int64             // attempts re-issued after a fault
	RetryWait     simclock.Duration // virtual time spent in retry backoff
	EIOs          int64             // requests abandoned after the policy gave up
	WritebackEIOs int64             // asynchronous write-backs among them (page dropped)
}

// Kernel is the simulated machine: clock, devices, cache, and file tree.
type Kernel struct {
	Clock   *simclock.Clock
	Devices *device.Registry

	cfg    Config
	cache  *cache.Cache
	jitter *simclock.Jitter

	root *Inode
	// inodes is the inode table, indexed by Ino: numbers are handed out in
	// order from 1 and never reused, and a removed file's slot is nil.
	inodes []*Inode

	// stager, when set, intercepts device reads for files on stagedDev
	// (an HSM layer migrating tape blocks to a disk cache, or a remote
	// mount).
	stager    Stager
	stagedDev device.ID

	// Asynchronous prefetch state: per-device background timelines and
	// in-flight pages (see prefetch.go).
	pending   prefetchPending
	busyUntil map[device.ID]simclock.Duration

	// nextAlloc tracks the next free byte on each device.
	nextAlloc map[device.ID]int64

	// faultObs, when set, sees every device fault the kernel observes
	// (the sleds table's health feed).
	faultObs func(*device.Fault)

	// wb queues dirty pages evicted by a cache mutation until the
	// mutation's drain point writes them back; wbHead is the next to go
	// (see resume.go).
	wb     []wbItem
	wbHead int
	// parked holds finished suspended operations for start to reuse.
	parked []*pageOp

	// mem is the arena (hostmem.go), memEpoch its epoch at boot.
	mem      *HostMem
	memEpoch uint64

	stats RunStats
}

// NewKernel boots a simulated machine with an empty file tree and an
// empty cache. Storage devices are attached afterwards with AttachDevice;
// cfg.MemDevice (used to cost cache-hit copies) is charged directly and
// does not need to be attached.
func NewKernel(cfg Config) *Kernel {
	if cfg.PageSize <= 0 {
		panic(fmt.Sprintf("vfs: bad page size %d", cfg.PageSize))
	}
	if cfg.CachePages <= 0 {
		panic(fmt.Sprintf("vfs: bad cache size %d", cfg.CachePages))
	}
	if cfg.MemDevice == nil {
		panic("vfs: MemDevice is required")
	}
	mem := cfg.HostMem
	if mem == nil {
		mem = new(HostMem)
	}
	if mem.pageSize != cfg.PageSize { // buffers of another size are no use
		mem.pageSize, mem.bufs, mem.free = cfg.PageSize, nil, nil
	}
	k := &Kernel{
		Clock:     simclock.New(),
		Devices:   device.NewRegistry(),
		cfg:       cfg,
		inodes:    []*Inode{nil}, // Ino 0 is never handed out
		nextAlloc: make(map[device.ID]int64),
		pending:   make(prefetchPending),
		busyUntil: make(map[device.ID]simclock.Duration),
		mem:       mem,
		memEpoch:  mem.epoch,
	}
	if cfg.JitterFrac > 0 {
		k.jitter = simclock.NewJitter(cfg.JitterSeed, cfg.JitterFrac)
	}
	if mem.live == len(mem.caches) { // the i-th kernel since a Reset recycles the i-th cache
		mem.caches = append(mem.caches, nil)
	}
	k.cache = cache.Recycle(mem.caches[mem.live], cfg.CachePages, cfg.Policy, k.onEvict)
	mem.caches[mem.live] = k.cache
	mem.live++
	k.cache.SetDropFn(func(buf []byte) { k.hostMem().put(buf) })
	k.root = k.addInode(&Inode{name: "/", isDir: true, children: map[string]*Inode{}})
	return k
}

// SetClock installs c as the kernel's clock. The multi-stream scheduler
// (internal/iosched) gives each simulated process its own virtual timeline
// and installs it here while that process runs, so every charge the
// kernel makes lands on the running stream's clock; single-stream code
// never needs this.
func (k *Kernel) SetClock(c *simclock.Clock) { k.Clock = c }

// PageSize returns the VM page size.
func (k *Kernel) PageSize() int { return k.cfg.PageSize }

// Cache exposes the buffer cache (read-mostly: experiments inspect it, the
// SLED scan probes residency).
func (k *Kernel) Cache() *cache.Cache { return k.cache }

// ResidentRuns returns the inode's resident pages as sorted, maximally
// coalesced page runs without perturbing replacement state — the O(runs)
// counterpart of per-page PageResident, and what FSLEDS_GET iterates.
// The returned slice aliases the cache's residency index; callers must
// not modify it and should consume it before the next cache mutation.
func (k *Kernel) ResidentRuns(n *Inode) []cache.Run {
	k.hostMem()
	return k.cache.ResidentRuns(uint64(n.ino))
}

// ResidencyEpoch returns the inode's residency epoch: a monotone counter
// the cache advances on every splice of the file's resident-run vector.
// Equal values from two calls guarantee ResidentRuns did not change in
// between — the invalidation signal core's skeleton memo keys on.
func (k *Kernel) ResidencyEpoch(n *Inode) uint64 {
	k.hostMem()
	return k.cache.ResidencyEpoch(uint64(n.ino))
}

// DeviceStaged reports whether reads from the device are interposed by a
// stager (HSM or remote mount), i.e. whether DeviceForPage may differ
// from the inode's own device for files living on it.
func (k *Kernel) DeviceStaged(id device.ID) bool {
	return k.stager != nil && k.stagedDev == id
}

// AttachDevice adds a device to the machine.
func (k *Kernel) AttachDevice(d device.Device) device.ID {
	return k.Devices.Attach(d)
}

// addInode numbers n and enters it in the inode table.
func (k *Kernel) addInode(n *Inode) *Inode {
	n.ino = Ino(len(k.inodes))
	k.inodes = append(k.inodes, n)
	return n
}

// ResetRunStats zeroes the per-run counters (called at the start of each
// measured run).
func (k *Kernel) ResetRunStats() { k.stats = RunStats{} }

// RunStats returns a snapshot of the per-run counters.
func (k *Kernel) RunStats() RunStats { return k.stats }

// ChargeCPU advances the clock by d and accounts it as CPU time. The
// applications use this to model their per-byte processing cost.
func (k *Kernel) ChargeCPU(d simclock.Duration) {
	k.Clock.Advance(d)
	k.stats.CPUTime += d
}

// ChargeCPUBytes charges CPU time for processing n bytes at rate
// bytesPerSec.
func (k *Kernel) ChargeCPUBytes(n int64, bytesPerSec float64) {
	k.ChargeCPU(simclock.TransferTime(n, bytesPerSec))
}

// SetFaultObserver installs fn to be called on every device fault the
// kernel observes on its I/O paths (demand reads, readahead, prefetch,
// write-back), including faults that a retry then rides out. The sleds
// table's health tracking hooks in here; nil detaches.
func (k *Kernel) SetFaultObserver(fn func(*device.Fault)) { k.faultObs = fn }

// onEvict is the cache's eviction callback: dirty pages are queued for
// write-back to their device, clean pages' buffers are recycled at once.
// The queue is drained immediately after the cache mutation that triggered
// the eviction (pageOp.insert, invalidation), which keeps the write at the
// same virtual instant as the historical write-during-eviction while
// letting the engine suspend mid-write-back. Eviction is asynchronous
// write-back — there is no one to return an error to — so a write-back
// that still fails after retries is counted (WritebackEIOs) and the page
// dropped, as a real kernel's failed async write-back ends up doing.
func (k *Kernel) onEvict(key cache.Key, data []byte, dirty bool) {
	// An evicted page can no longer be served by its in-flight prefetch.
	delete(k.pending, key)
	ino := k.inodes[key.File]
	if !dirty || ino == nil {
		// Clean, or the file was deleted with dirty pages still cached:
		// nothing to write.
		k.hostMem().put(data)
		return
	}
	k.wb = append(k.wb, wbItem{ino: ino, page: key.Page, data: data})
}

// allocExtent reserves size bytes of contiguous space on a device,
// page-aligned, respecting chunk boundaries for chunked media (tape
// cartridges).
func (k *Kernel) allocExtent(id device.ID, size int64) (int64, error) {
	info := k.Devices.Get(id).Info()
	ps := int64(k.cfg.PageSize)
	next := k.nextAlloc[id]
	// Round up to a page boundary.
	next = (next + ps - 1) / ps * ps

	if chunk := info.ChunkSize; chunk > 0 {
		if size > chunk {
			return 0, fmt.Errorf("vfs: file of %d bytes exceeds %q chunk size %d: %w",
				size, info.Name, chunk, ErrNoSpace)
		}
		// Avoid spanning a chunk (cartridge) boundary.
		if next/chunk != (next+size-1)/chunk {
			next = (next/chunk + 1) * chunk
		}
	}
	if info.Size > 0 && next+size > info.Size {
		return 0, fmt.Errorf("vfs: device %q full: %w", info.Name, ErrNoSpace)
	}
	k.nextAlloc[id] = next + size
	return next, nil
}

// Stager is a hierarchical storage layer interposed between the page
// cache and a device: fetches may be served from a faster migration cache
// (disk) instead of the backing device (tape), and the SLED query wants to
// know which.
type Stager interface {
	// Fetch charges the virtual-time cost of making [devOff, devOff+n) of
	// the file's backing bytes available for copying into the page cache,
	// migrating between levels as needed. A stager that makes device
	// accesses of its own runs each through Kernel.Access, so a fault is
	// retried where it happens; an error it returns ends the fetch.
	Fetch(ino *Inode, devOff, length int64) error
	// DeviceFor reports the device the byte at devOff would currently be
	// served from.
	DeviceFor(ino *Inode, devOff int64) device.ID
}

// SetStager interposes s on reads from files living on dev.
func (k *Kernel) SetStager(s Stager, dev device.ID) {
	k.stager, k.stagedDev = s, dev
}

// DeviceForPage reports which device currently backs the given page: the
// inode's device, or whatever level the stager has it at.
func (k *Kernel) DeviceForPage(n *Inode, page int64) device.ID {
	if k.DeviceStaged(n.dev) {
		return k.stager.DeviceFor(n, n.extent+page*int64(k.cfg.PageSize))
	}
	return n.dev
}

// ReserveExtent allocates size bytes of device space outside any file
// (used by the HSM stager for its disk migration area).
func (k *Kernel) ReserveExtent(dev device.ID, size int64) (int64, error) {
	return k.allocExtent(dev, size)
}

// ResetDeviceState resets the mechanical state of every device (between
// independent experiment trials), including the background prefetch
// timelines. Cache contents are preserved; use DropCaches for a cold
// cache.
func (k *Kernel) ResetDeviceState() {
	k.Devices.ResetAll()
	clear(k.busyUntil)
}

// DropCaches empties the buffer cache, writing back dirty pages first —
// the simulator's /proc/sys/vm/drop_caches.
func (k *Kernel) DropCaches() {
	k.SyncAll()
	clear(k.pending)
	// Invalidate clean pages file by file, in inode order. SyncAll left
	// nothing dirty, but drain defensively in case an eviction raced a
	// write-back failure.
	for _, ino := range k.inodes {
		if ino != nil && !ino.isDir {
			k.cache.InvalidateFile(uint64(ino.ino))
		}
	}
	k.drainWritebacksSync()
}

// SyncAll writes every dirty page back to its device (sync(2)). Pages
// whose write-back still fails after retries are counted in
// WritebackEIOs (by wrotePage) and dropped — sync(2) historically absorbs
// write errors silently; File.Sync is the path that reports them.
func (k *Kernel) SyncAll() {
	o := pageOp{k: k}
	k.cache.FlushDirty(func(key cache.Key, data []byte) {
		ino := k.inodes[key.File]
		if ino == nil {
			return
		}
		blocked, err := o.writePage(ino, key.Page, data)
		mustNotBlock(blocked, "page write-back")
		k.wrotePage(err)
	})
}
