package experiments

import (
	"fmt"

	"sleds/internal/apps/appenv"
	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/lmbench"
	"sleds/internal/simclock"
	"sleds/internal/stats"
	"sleds/internal/vfs"
)

// Profile selects which of the paper's two test machines to model.
type Profile int

// Machine profiles.
const (
	// ProfileUnix is the Table 2 machine (Unix utility experiments).
	ProfileUnix Profile = iota
	// ProfileLHEA is the Table 3 machine (LHEASOFT experiments): faster
	// memory, slower disk.
	ProfileLHEA
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

	// Injectors maps device IDs to the fault injectors interposed over
	// them (empty on a healthy machine).
	Injectors map[device.ID]*faults.Injector
}

// newKernel builds cfg's kernel over a memory device of the given shape,
// with nothing else attached: the start of every machine an experiment
// boots, and so the one place cfg is validated. Jitter is seeded from
// cfg.Seed, so pass the point's derived configuration.
func newKernel(cfg Config, memCfg device.MemConfig) (*vfs.Kernel, device.Device) {
	cfg.validate()
	mem := device.NewMem(memCfg)
	k := vfs.NewKernel(vfs.Config{
		PageSize:       cfg.PageSize,
		CachePages:     cfg.CachePages,
		Policy:         cfg.Policy,
		ReadaheadPages: cfg.ReadaheadPages,
		MemDevice:      mem,
		JitterSeed:     cfg.Seed,
		JitterFrac:     cfg.JitterFrac,
		HostMem:        cfg.mem,
	})
	k.AttachDevice(mem)
	return k, mem
}

// BootMachine builds and calibrates a machine for the given profile.
func BootMachine(cfg Config, profile Profile) (*Machine, error) {
	var memCfg device.MemConfig
	var diskCfg device.DiskConfig
	switch profile {
	case ProfileUnix:
		memCfg = device.Table2MemConfig(0)
		diskCfg = device.Table2DiskConfig(1)
	case ProfileLHEA:
		memCfg = device.Table3MemConfig(0)
		diskCfg = device.Table3DiskConfig(1)
	default:
		return nil, fmt.Errorf("experiments: unknown profile %d", profile)
	}
	k, mem := newKernel(cfg, memCfg)
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
	// Global fault injection (make faults-smoke, sledsbench -faults) wraps
	// every non-memory device AFTER calibration, so the table holds the
	// healthy estimates injection then degrades — as on a real machine,
	// where lmbench ran before the hardware started failing.
	if cfg.FaultProfile != "" && cfg.FaultProfile != "off" {
		for _, id := range []device.ID{m.Disk, m.CDROM, m.NFS, m.Tape} {
			fcfg, ok := faults.ProfileConfig(cfg.FaultProfile, PointSeed(cfg.Seed, "faults", int(id)))
			if !ok {
				return nil, fmt.Errorf("experiments: unknown fault profile %q", cfg.FaultProfile)
			}
			m.InjectFaults(id, fcfg)
		}
	}
	return m, nil
}

// InjectFaults interposes a fault injector over the registered device
// (device.Registry.Replace) and returns it for stats inspection. Call
// only after calibration: probes must measure the healthy device.
func (m *Machine) InjectFaults(id device.ID, fcfg faults.Config) *faults.Injector {
	wrapped, inj := faults.Wrap(m.K.Devices.Get(id), fcfg)
	m.K.Devices.Replace(id, wrapped)
	if m.Injectors == nil {
		m.Injectors = make(map[device.ID]*faults.Injector)
	}
	m.Injectors[id] = inj
	return inj
}

// DeviceByName maps the experiment file-system names to devices.
func (m *Machine) DeviceByName(name string) (device.ID, error) {
	switch name {
	case "ext2":
		return m.Disk, nil
	case "cdrom":
		return m.CDROM, nil
	case "nfs":
		return m.NFS, nil
	case "tape":
		return m.Tape, nil
	default:
		return 0, fmt.Errorf("experiments: unknown file system %q", name)
	}
}

// Env builds an application environment on this machine.
func (m *Machine) Env(useSLEDs bool, bufSize int64) *appenv.Env {
	return &appenv.Env{K: m.K, Table: m.Table, UseSLEDs: useSLEDs, BufSize: bufSize}
}

// measured runs fn once discarded (cache warm-up) and then cfg.Runs times,
// returning samples of elapsed virtual seconds and of hard fault counts.
// Between runs, cache state is deliberately carried (the paper's
// methodology); device mechanical state is reset so positioning history
// does not leak across runs.
func measured(cfg Config, m *Machine, fn func(run int) error) (elapsed, faults *stats.Sample, err error) {
	elapsed, faults = &stats.Sample{}, &stats.Sample{}
	for run := -1; run < cfg.Runs; run++ {
		m.K.ResetDeviceState()
		m.K.ResetRunStats()
		start := m.K.Clock.Now()
		if err := fn(run); err != nil {
			return nil, nil, err
		}
		if run < 0 {
			continue // warm-up, discarded
		}
		sec := float64(m.K.Clock.Now()-start) / float64(simclock.Second)
		elapsed.Add(sec)
		faults.Add(float64(m.K.RunStats().Faults))
	}
	return elapsed, faults, nil
}
