package experiments

import (
	"fmt"

	"sleds/internal/device"
	"sleds/internal/faults"
	"sleds/internal/machine"
	"sleds/internal/simclock"
	"sleds/internal/stats"
	"sleds/internal/vfs"
)

// Profile selects which of the paper's two test machines to model.
type Profile = machine.Profile

// Machine profiles.
const (
	// ProfileUnix is the Table 2 machine (Unix utility experiments).
	ProfileUnix = machine.Unix
	// ProfileLHEA is the Table 3 machine (LHEASOFT experiments): faster
	// memory, slower disk.
	ProfileLHEA = machine.LHEA
)

// Machine is one booted simulated machine with a calibrated sleds table.
type Machine = machine.Machine

// kernelConfig is cfg's kernel, its memory device not yet chosen: the
// start of every machine an experiment boots, and so the one place cfg is
// validated. Jitter is seeded from cfg.Seed, so pass the point's derived
// configuration.
func kernelConfig(cfg Config) vfs.Config {
	cfg.validate()
	return vfs.Config{
		PageSize:       cfg.PageSize,
		CachePages:     cfg.CachePages,
		Policy:         cfg.Policy,
		ReadaheadPages: cfg.ReadaheadPages,
		JitterSeed:     cfg.Seed,
		JitterFrac:     cfg.JitterFrac,
		HostMem:        cfg.mem,
	}
}

// newKernel builds cfg's kernel over a memory device of the given shape,
// with nothing else attached.
func newKernel(cfg Config, memCfg device.MemConfig) (*vfs.Kernel, device.Device) {
	kc := kernelConfig(cfg)
	kc.MemDevice = device.NewMem(memCfg)
	k := vfs.NewKernel(kc)
	k.AttachDevice(kc.MemDevice)
	return k, kc.MemDevice
}

// BootMachine boots the profile's standard machine (machine.Boot) and,
// when cfg names a fault profile, injects it over every device.
func BootMachine(cfg Config, profile Profile) (*Machine, error) {
	m, err := machine.Boot(kernelConfig(cfg), profile)
	if err != nil {
		return nil, err
	}
	// Global fault injection (make faults-smoke, sledsbench -faults) wraps
	// every non-memory device AFTER calibration, so the table holds the
	// healthy estimates injection then degrades — as on a real machine,
	// where lmbench ran before the hardware started failing.
	if err := injectProfile(m.K, cfg, m.Disk, m.CDROM, m.NFS, m.Tape); err != nil {
		return nil, err
	}
	return m, nil
}

// injectProfile wraps each of ids in cfg's fault profile, if it names one,
// seeded per device from cfg's seed. Call only after calibration.
func injectProfile(k *vfs.Kernel, cfg Config, ids ...device.ID) error {
	if cfg.FaultProfile == "" || cfg.FaultProfile == "off" {
		return nil
	}
	for _, id := range ids {
		fcfg, ok := faults.ProfileConfig(cfg.FaultProfile, PointSeed(cfg.Seed, "faults", int(id)))
		if !ok {
			return fmt.Errorf("experiments: unknown fault profile %q", cfg.FaultProfile)
		}
		injectFaults(k, id, fcfg)
	}
	return nil
}

// injectFaults interposes a fault injector over the registered device
// (device.Registry.Replace). Call only after calibration: probes must
// measure the healthy device.
func injectFaults(k *vfs.Kernel, id device.ID, fcfg faults.Config) {
	wrapped, _ := faults.Wrap(k.Devices.Get(id), fcfg)
	k.Devices.Replace(id, wrapped)
}

// deviceByName maps the experiment file-system names to devices.
func deviceByName(m *Machine, name string) (device.ID, error) {
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
