package main

import (
	"sleds/internal/device"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// The interposers sit at the boundaries a caller of the simulator owns:
// the PageGen it hands to workload.New, the Device it registers, and the
// Program it adds to an engine. Each forwards unchanged and records one
// span per call. With a nil recorder every constructor returns its
// argument, so the untraced run has no wrapper in its path at all.

// timedGen records one workload.gen span per generated page.
func timedGen(rec *recorder, gen workload.PageGen) workload.PageGen {
	if rec == nil {
		return gen
	}
	return func(page int64, buf []byte) {
		id := rec.begin(spanGen)
		gen(page, buf)
		rec.end(id)
	}
}

// timedProgram records one span per Step of a Program.
func timedProgram(rec *recorder, name spanName, p iosched.Program) iosched.Program {
	if rec == nil {
		return p
	}
	return iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
		id := rec.begin(name)
		op := p.Step(h, prev)
		rec.end(id)
		return op
	})
}

// timedDevice records one device.model span per device access. It is a
// device.FallibleDevice whatever it wraps: device.ReadErr falls back to
// the infallible path for a plain device, so the outcome is the same.
type timedDevice struct {
	dev device.Device
	rec *recorder
}

func (d *timedDevice) Info() device.Info { return d.dev.Info() }
func (d *timedDevice) Reset()            { d.dev.Reset() }

func (d *timedDevice) Read(c *simclock.Clock, off, length int64) {
	id := d.rec.begin(spanDevice)
	d.dev.Read(c, off, length)
	d.rec.end(id)
}

func (d *timedDevice) Write(c *simclock.Clock, off, length int64) {
	id := d.rec.begin(spanDevice)
	d.dev.Write(c, off, length)
	d.rec.end(id)
}

func (d *timedDevice) ReadErr(c *simclock.Clock, off, length int64) error {
	id := d.rec.begin(spanDevice)
	err := device.ReadErr(d.dev, c, off, length)
	d.rec.end(id)
	return err
}

func (d *timedDevice) WriteErr(c *simclock.Clock, off, length int64) error {
	id := d.rec.begin(spanDevice)
	err := device.WriteErr(d.dev, c, off, length)
	d.rec.end(id)
	return err
}

// The VFS finds chunked media (tape) and read-only media (CD-ROM) by
// type assertion, so a wrapper must carry exactly the markers the
// wrapped device has, as faults.Wrap does.
type (
	chunked  interface{ ChunkSize() int64 }
	readOnly interface{ ReadOnly() bool }

	timedChunked struct {
		*timedDevice
		chunked
	}
	timedReadOnly struct {
		*timedDevice
		readOnly
	}
	timedChunkedReadOnly struct {
		*timedDevice
		chunked
		readOnly
	}
)

// wrapDevice builds the timed stand-in for d, markers preserved.
func wrapDevice(rec *recorder, d device.Device) device.Device {
	td := &timedDevice{dev: d, rec: rec}
	cb, hasChunk := d.(chunked)
	ro, hasRO := d.(readOnly)
	switch {
	case hasChunk && hasRO:
		return &timedChunkedReadOnly{td, cb, ro}
	case hasChunk:
		return &timedChunked{td, cb}
	case hasRO:
		return &timedReadOnly{td, ro}
	default:
		return td
	}
}

// timeDevices replaces every registered device except memory with its
// timed stand-in. Call it after calibration and before any engine queues
// a device, which is where faults.Wrap goes too: lmbench must measure the
// raw device, and a queue wraps whatever is registered when it is built.
func timeDevices(rec *recorder, k *vfs.Kernel) {
	if rec == nil {
		return
	}
	for _, d := range k.Devices.All() {
		if d.Info().Level == device.LevelMemory {
			continue
		}
		k.Devices.Replace(d.Info().ID, wrapDevice(rec, d))
	}
}
