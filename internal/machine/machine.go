// Package machine boots the paper's test machine: the one place its
// kernel, devices, /data directory and calibrated sleds table are
// assembled. The public sleds.System, the experiments and the
// application tests all start from Boot.
package machine

import (
	"fmt"

	"sleds/internal/apps/appenv"
	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/lmbench"
	"sleds/internal/vfs"
)

// Profile selects which of the paper's two test machines to model.
type Profile int

// Machine profiles.
const (
	// Unix is the Table 2 machine (Unix utility experiments).
	Unix Profile = iota
	// LHEA is the Table 3 machine (LHEASOFT experiments): faster memory,
	// slower disk.
	LHEA
)

// Machine is one booted simulated machine with a calibrated sleds table.
type Machine struct {
	K     *vfs.Kernel
	Table *core.Table
	Mem   device.Device
	Disk  device.ID
	CDROM device.ID
	NFS   device.ID
	Tape  device.ID
}

// Boot builds the kernel cfg describes over the profile's memory, attaches
// memory, disk, CD-ROM, NFS and tape library at IDs 0–4, creates /data and
// calibrates the sleds table with lmbench. cfg.MemDevice is ignored: the
// profile supplies it.
func Boot(cfg vfs.Config, profile Profile) (*Machine, error) {
	memCfg, diskCfg := device.Table2MemConfig(0), device.Table2DiskConfig(1)
	switch profile {
	case Unix:
	case LHEA:
		memCfg, diskCfg = device.Table3MemConfig(0), device.Table3DiskConfig(1)
	default:
		return nil, fmt.Errorf("machine: unknown profile %d", profile)
	}
	mem := device.NewMem(memCfg)
	cfg.MemDevice = mem
	k := vfs.NewKernel(cfg)
	k.AttachDevice(mem)
	m := &Machine{K: k, Mem: mem}
	m.Disk = k.AttachDevice(device.NewDisk(diskCfg))
	m.CDROM = k.AttachDevice(device.NewCDROM(device.DefaultCDROMConfig(2)))
	m.NFS = k.AttachDevice(device.NewNFS(device.DefaultNFSConfig(3)))
	m.Tape = k.AttachDevice(device.NewTapeLibrary(device.DefaultTapeLibraryConfig(4)))
	if err := k.MkdirAll("/data"); err != nil {
		return nil, err
	}
	tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	if err != nil {
		return nil, err
	}
	m.Table = tab
	// Every device fault the kernel's retry loop observes feeds the
	// table's health state, degrading that device's SLED estimates.
	k.SetFaultObserver(func(f *device.Fault) {
		tab.ObserveFault(f.Dev, f.Extra, k.Clock.Now())
	})
	return m, nil
}

// Env builds an application environment on this machine.
func (m *Machine) Env(useSLEDs bool, bufSize int64) *appenv.Env {
	return &appenv.Env{K: m.K, Table: m.Table, UseSLEDs: useSLEDs, BufSize: bufSize}
}
