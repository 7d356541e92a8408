// Package device models the storage devices underneath the simulated file
// systems: primary memory, hard disks (with seek, rotation and zoned
// transfer rates after Ruemmler & Wilkes), CD-ROM drives, NFS servers, and
// tape drives with an autochanger.
//
// Devices advance a virtual clock (internal/simclock) rather than taking
// real time. Each device keeps the dynamic mechanical state the paper
// describes — head position, rotational phase, tape position, mounted
// media — so that access cost depends on access history, which is exactly
// the variability SLEDs exist to expose.
//
// The models here are the simulator's ground truth. The kernel's sleds
// table (internal/core) does NOT read these parameters directly; it is
// filled by measuring the devices with internal/lmbench, mirroring how the
// paper calibrated its table by running lmbench at boot.
package device

import (
	"fmt"

	"sleds/internal/simclock"
)

// Level identifies a storage level in the hierarchy. The kernel sleds
// table has one (latency, bandwidth) entry per level/device.
type Level int

// Storage levels, ordered roughly from fastest to slowest.
const (
	LevelMemory Level = iota
	LevelDisk
	LevelCDROM
	LevelNFS
	LevelTape
)

// String returns the level name used in reports and tables.
func (l Level) String() string {
	switch l {
	case LevelMemory:
		return "memory"
	case LevelDisk:
		return "hard disk"
	case LevelCDROM:
		return "CD-ROM"
	case LevelNFS:
		return "NFS"
	case LevelTape:
		return "tape"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ID names a concrete device instance within a System.
type ID int

// None is the zero ID, meaning "no device".
const None ID = -1

// Info describes a device instance.
type Info struct {
	ID    ID
	Name  string
	Level Level
	// Size is the device capacity in bytes (0 = unbounded, e.g. memory).
	Size int64
	// ChunkSize is the span no file extent or request may cross (a tape
	// cartridge); 0 = none.
	ChunkSize int64
	// ReadOnly media (CD-ROM) reject writes; the VFS checks before writing.
	ReadOnly bool
}

// Device is a storage device simulated in virtual time.
//
// Offsets are linear byte addresses within the device. Read and Write
// advance the clock by the modelled positioning and transfer cost of the
// access; they carry no data (file contents are handled by the backing
// layer in internal/workload — the device models cost only).
type Device interface {
	Info() Info

	// Read simulates reading length bytes at off.
	Read(c *simclock.Clock, off, length int64)

	// Write simulates writing length bytes at off.
	Write(c *simclock.Clock, off, length int64)

	// Reset discards dynamic mechanical state (head position, rotational
	// phase, ...), returning the device to its power-on state. The
	// experiment harness calls this between independent trials.
	Reset()
}

// FallibleDevice is the fallible read/write path of the device contract.
// Plain Devices never fail; wrappers that can fail (internal/faults'
// Injector, internal/iosched's QueuedDevice when it forwards a wrapped
// injector's error) implement this extension. Callers that can handle
// errors use the package helpers ReadErr/WriteErr, which fall back to the
// infallible methods for plain devices; callers on the legacy infallible
// path keep working unchanged.
//
// On error the access may still have advanced the clock (a failed request
// costs time — that is the point); the caller owns retrying or surfacing
// EIO. The error chain always carries a *Fault.
type FallibleDevice interface {
	Device
	ReadErr(c *simclock.Clock, off, length int64) error
	WriteErr(c *simclock.Clock, off, length int64) error
}

// ReadErr reads through the fallible path when the device supports it and
// the infallible path (never failing) otherwise.
func ReadErr(d Device, c *simclock.Clock, off, length int64) error {
	return newHandle(d).ReadErr(c, off, length)
}

// WriteErr writes through the fallible path when the device supports it
// and the infallible path otherwise.
func WriteErr(d Device, c *simclock.Clock, off, length int64) error {
	return newHandle(d).WriteErr(c, off, length)
}

// Handle is a device with its fallible path resolved once. ReadErr and
// WriteErr above assert FallibleDevice on every call, and Go fills a call
// site's assertion cache lazily, allocating on a refill; a per-access
// caller takes a Handle from Registry.Handle instead.
type Handle struct {
	Device
	fallible FallibleDevice // Device itself, or nil when it cannot fail
}

func newHandle(d Device) Handle {
	fd, _ := d.(FallibleDevice)
	return Handle{Device: d, fallible: fd}
}

// ReadErr reads through the device's fallible path when it has one.
func (h Handle) ReadErr(c *simclock.Clock, off, length int64) error {
	if h.fallible != nil {
		return h.fallible.ReadErr(c, off, length)
	}
	h.Read(c, off, length)
	return nil
}

// WriteErr writes through the device's fallible path when it has one.
func (h Handle) WriteErr(c *simclock.Clock, off, length int64) error {
	if h.fallible != nil {
		return h.fallible.WriteErr(c, off, length)
	}
	h.Write(c, off, length)
	return nil
}

// FaultClass categorises an injected device fault by its physical analogue.
type FaultClass int

// Fault classes. The class determines how the kernel's retry policy and
// the sleds health observer should weigh the event; the injector decides
// which classes a device level can produce.
const (
	// FaultTransient is a transient medium error (disk sector pending
	// remap, CD read retry): the request fails after a positioning delay
	// and an immediate retry is likely to succeed.
	FaultTransient FaultClass = iota
	// FaultTimeout is a lost request (NFS RPC timeout): the full timeout
	// elapses before the failure is known; the caller retransmits with
	// backoff.
	FaultTimeout
	// FaultMount is a removable-media mount/load failure (tape autochanger
	// mispick): expensive, and the retry repeats the whole load.
	FaultMount
)

// String names the class the way fault traces render it.
func (fc FaultClass) String() string {
	switch fc {
	case FaultTransient:
		return "transient"
	case FaultTimeout:
		return "timeout"
	case FaultMount:
		return "mount"
	default:
		return fmt.Sprintf("class(%d)", int(fc))
	}
}

// Fault is the error returned by a failed device access. Extra records the
// virtual time the failed attempt consumed beyond the healthy access cost
// (the tail the health observer feeds into SLED estimates).
type Fault struct {
	Dev   ID
	Class FaultClass
	Extra simclock.Duration
	Seq   int64 // per-device fault ordinal, for deterministic traces
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("device %d: %s fault #%d (+%v)", f.Dev, f.Class, f.Seq, f.Extra)
}

// Registry tracks the devices attached to a simulated machine.
type Registry struct {
	devices []Handle
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Attach adds a device and assigns it the next ID. The device's Info must
// return the assigned ID afterwards; concrete devices in this package take
// the ID at construction via their config, so Attach verifies consistency.
func (r *Registry) Attach(d Device) ID {
	id := ID(len(r.devices))
	if got := d.Info().ID; got != id {
		panic(fmt.Sprintf("device: attaching %q with ID %d as ID %d", d.Info().Name, got, id))
	}
	r.devices = append(r.devices, newHandle(d))
	return id
}

// Replace swaps the device registered under id for d, returning the
// previous registrant. The replacement must report the same ID. This is
// how internal/iosched interposes its queued wrappers after boot-time
// calibration has measured the raw devices.
//
// Wrappers stack: each interposer captures whatever Replace returns (or
// whatever Get reported when it was built) as its underlying device, so
// Injector-over-QueuedDevice and QueuedDevice-over-Injector both compose —
// the outer wrapper's Read drives the inner wrapper's, which drives the
// raw device. What a wrapper must forward for that to be safe (Info
// verbatim, Reset, fallible errors) is DESIGN.md, "Wrapping a device".
func (r *Registry) Replace(id ID, d Device) Device {
	if id < 0 || int(id) >= len(r.devices) {
		panic(fmt.Sprintf("device: replacing unknown device ID %d", id))
	}
	if got := d.Info().ID; got != id {
		panic(fmt.Sprintf("device: replacing ID %d with %q reporting ID %d", id, d.Info().Name, got))
	}
	old := r.devices[id].Device
	r.devices[id] = newHandle(d)
	return old
}

// Get returns the device with the given ID.
func (r *Registry) Get(id ID) Device { return r.Handle(id).Device }

// Handle returns the device with the given ID and its fallible path.
func (r *Registry) Handle(id ID) Handle {
	if id < 0 || int(id) >= len(r.devices) {
		panic(fmt.Sprintf("device: unknown device ID %d", id))
	}
	return r.devices[id]
}

// Len reports the number of attached devices.
func (r *Registry) Len() int { return len(r.devices) }

// All returns the attached devices in ID order. The slice is a copy.
func (r *Registry) All() []Device {
	out := make([]Device, len(r.devices))
	for i, h := range r.devices {
		out[i] = h.Device
	}
	return out
}

// ResetAll resets the dynamic state of every attached device.
func (r *Registry) ResetAll() {
	for _, d := range r.devices {
		d.Reset()
	}
}

// checkExtent validates a request extent against the device geometry.
// The VFS clamps file I/O to the mapped extent before it reaches a
// device, so an out-of-range extent here is a kernel/layout bug —
// distinct from injected faults, which flow through FallibleDevice.
func checkExtent(info Info, off, length int64) {
	if off < 0 || length < 0 {
		panic(fmt.Sprintf("device %q: negative extent (off=%d len=%d)", info.Name, off, length))
	}
	if off+length < off {
		panic(fmt.Sprintf("device %q: extent (off=%d len=%d) overflows", info.Name, off, length))
	}
	if info.Size > 0 && off+length > info.Size {
		panic(fmt.Sprintf("device %q: extent [%d,%d) beyond size %d", info.Name, off, off+length, info.Size))
	}
}
