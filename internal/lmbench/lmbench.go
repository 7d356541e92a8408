// Package lmbench measures the latency and bandwidth of the simulated
// devices, mirroring how the paper fills its kernel sleds table: "a script
// from /etc/rc.d/init.d ... The latency and bandwidth for both local and
// network file systems are obtained by running the lmbench benchmark."
//
// The probes run in virtual time against the device models and therefore
// *measure* the table entries rather than copying the models' parameters —
// the same estimate-vs-reality split the paper has. Probing advances the
// virtual clock (boot takes time) and leaves mechanical state behind, so
// Calibrate resets the probed devices before returning.
package lmbench

import (
	"fmt"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/splitmix"
)

// probe parameters: enough trials to average out rotational phase without
// making boot take (virtual) hours on tape libraries.
const (
	latencyTrials  = 64
	bandwidthBytes = 16 << 20
)

// MeasureMemory probes a memory device: first-byte latency from 1-byte
// reads, bandwidth from a large copy.
func MeasureMemory(clock *simclock.Clock, mem device.Device) core.Entry {
	start := clock.Now()
	for i := 0; i < latencyTrials; i++ {
		mem.Read(clock, 0, 1)
	}
	lat := float64(clock.Now()-start) / float64(latencyTrials) / float64(simclock.Second)

	start = clock.Now()
	mem.Read(clock, 0, bandwidthBytes)
	sec := float64(clock.Now()-start) / float64(simclock.Second)
	return core.Entry{Latency: lat, Bandwidth: float64(bandwidthBytes) / sec}
}

// MeasureDevice probes a storage device: average random-access first-byte
// latency (page-aligned 1-byte reads scattered across the device) and
// sustained sequential bandwidth measured mid-device (a representative
// zone on zoned disks).
func MeasureDevice(clock *simclock.Clock, d device.Device) (core.Entry, error) {
	info := d.Info()
	if info.Size <= 0 {
		return core.Entry{}, fmt.Errorf("lmbench: device %q has unknown size", info.Name)
	}
	d.Reset()

	// Random-access latency.
	state := uint64(0x5eed) ^ uint64(info.ID)<<32
	start := clock.Now()
	for i := 0; i < latencyTrials; i++ {
		off := int64(splitmix.Next(&state) % uint64(info.Size))
		off -= off % 4096
		d.Read(clock, off, 1)
	}
	lat := float64(clock.Now()-start) / float64(latencyTrials) / float64(simclock.Second)

	// Sequential bandwidth from the middle of the device.
	d.Reset()
	mid := info.Size / 2
	mid -= mid % 4096
	n := int64(bandwidthBytes)
	if mid+n > info.Size {
		n = info.Size - mid
	}
	// Prime the position so the positioning cost is excluded, as
	// lmbench's bandwidth loop excludes its first access.
	d.Read(clock, mid, 4096)
	start = clock.Now()
	d.Read(clock, mid+4096, n-4096)
	sec := float64(clock.Now()-start) / float64(simclock.Second)
	if sec <= 0 {
		return core.Entry{}, fmt.Errorf("lmbench: zero-time transfer on %q", info.Name)
	}
	bw := float64(n-4096) / sec

	d.Reset()
	return core.Entry{Latency: lat, Bandwidth: bw}, nil
}

// zones is how many table zones MeasureDeviceZones probes.
const zones = 8

// MeasureDeviceZones probes sequential bandwidth in zones evenly spaced
// across the device, returning the multi-zone table entries (the paper's
// future-work extension, cf. [Van97]). Latency is measured once and shared
// across zones.
func MeasureDeviceZones(clock *simclock.Clock, d device.Device) ([]core.ZoneEntry, error) {
	base, err := MeasureDevice(clock, d)
	if err != nil {
		return nil, err
	}
	info := d.Info()
	out := make([]core.ZoneEntry, 0, zones)
	zoneSize := info.Size / zones
	for z := 0; z < zones; z++ {
		start := int64(z) * zoneSize
		probeAt := start + zoneSize/2
		probeAt -= probeAt % 4096
		n := int64(4 << 20)
		if probeAt+n > info.Size {
			n = info.Size - probeAt
		}
		d.Reset()
		d.Read(clock, probeAt, 4096)
		t0 := clock.Now()
		d.Read(clock, probeAt+4096, n-4096)
		sec := float64(clock.Now()-t0) / float64(simclock.Second)
		out = append(out, core.ZoneEntry{
			FromByte: start,
			Entry:    core.Entry{Latency: base.Latency, Bandwidth: float64(n-4096) / sec},
		})
	}
	d.Reset()
	return out, nil
}

// Calibrate probes a memory device plus every attached storage device and
// returns a filled sleds table — the whole boot-time FSLEDS_FILL sequence.
func Calibrate(clock *simclock.Clock, mem device.Device, devs []device.Device) (*core.Table, error) {
	tab := core.NewTable()
	if err := tab.SetMemory(MeasureMemory(clock, mem)); err != nil {
		return nil, err
	}
	for _, d := range devs {
		if d.Info().Level == device.LevelMemory {
			continue
		}
		e, err := MeasureDevice(clock, d)
		if err != nil {
			return nil, err
		}
		if err := tab.SetDevice(d.Info().ID, e); err != nil {
			return nil, err
		}
	}
	return tab, nil
}
