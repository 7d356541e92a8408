// Package faults is the deterministic fault-injection layer: an Injector
// wraps any device.Device (the same interposition pattern as
// internal/iosched's QueuedDevice, via Registry.Replace) and injects
// seeded, virtual-time faults appropriate to the device's storage level:
//
//	disk / CD-ROM  transient read errors (sector pending remap, read
//	               retry after a recalibration delay)
//	NFS            request timeouts: the full timeout elapses before the
//	               failure is known, the caller retransmits with backoff
//	tape           mount/load failures: the autochanger mispicks and the
//	               whole exchange must be repeated
//	any level      latency spikes (thermal recalibration, degraded media,
//	               server GC pause) — slow, not failed
//
// Determinism: every injector draws from its own SplitMix64 stream seeded
// at construction (derive the seed PointSeed-style from the experiment
// point's coordinates), and consumes draws only on fresh requests — a
// retry of a faulted request consumes no randomness, so the schedule of
// injected faults is independent of the caller's retry policy and of how
// many workers run other experiment points. Reset reseeds the stream, so
// repeated measured runs over the same access sequence see the same
// faults.
//
// A fault episode fails 1..MaxConsecutive consecutive attempts at the
// same offset, then clears: the next request at that offset succeeds
// unconditionally, modelling transient conditions that retries ride out.
// The kernel makes five attempts per request, so an injector with
// MaxConsecutive < 5 never surfaces EIO through it, and one with
// MaxConsecutive >= 5 can.
package faults

import (
	"fmt"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/splitmix"
)

// Config parameterises one Injector.
type Config struct {
	// Seed seeds the injector's private RNG stream.
	Seed int64
	// PFault is the per-request probability of starting a fault episode.
	PFault float64
	// MaxConsecutive is the most attempts one episode fails (uniform in
	// 1..MaxConsecutive); values < 1 are treated as 1.
	MaxConsecutive int
	// PSpike is the per-request probability of a latency spike on an
	// otherwise healthy request.
	PSpike float64
	// SpikeMax bounds the spike duration (uniform in (0, SpikeMax]).
	SpikeMax simclock.Duration
}

// enabled reports whether the config can ever perturb a request.
func (c Config) enabled() bool { return c.PFault > 0 || c.PSpike > 0 }

// Per-class costs of one failed attempt, in virtual time. Deterministic
// constants (not drawn from the RNG) so golden retry traces are exact:
// a failed attempt costs the class's Extra, nothing else.
const (
	// TransientExtra is a disk/CD recalibration + reporting delay.
	TransientExtra = 25 * simclock.Millisecond
	// TimeoutExtra is the NFS client's RPC timeout (1.1 s, the classic
	// UDP timeo default): the full window elapses before the loss is
	// known.
	TimeoutExtra = 1100 * simclock.Millisecond
	// MountExtra is a failed tape exchange: the robot picks, seats, fails
	// the load check, and returns the cartridge.
	MountExtra = 15 * simclock.Second
)

// Profiles returns the named injection profiles, mildest first.
func Profiles() []string { return []string{"off", "light", "heavy"} }

// ProfileConfig maps a profile name to a Config with the given seed.
// ok is false for unknown names; "off" returns a disabled config.
func ProfileConfig(name string, seed int64) (Config, bool) {
	switch name {
	case "off":
		return Config{Seed: seed}, true
	case "light":
		return Config{
			Seed:           seed,
			PFault:         0.02,
			MaxConsecutive: 1,
			PSpike:         0.05,
			SpikeMax:       20 * simclock.Millisecond,
		}, true
	case "heavy":
		return Config{
			Seed:           seed,
			PFault:         0.15,
			MaxConsecutive: 3,
			PSpike:         0.10,
			SpikeMax:       50 * simclock.Millisecond,
		}, true
	default:
		return Config{}, false
	}
}

// Stats counts an injector's activity since construction.
type Stats struct {
	Faults int64 // failed attempts returned (every retry of an episode counts)
	Spikes int64 // latency spikes injected on healthy requests
}

// Injector wraps a device and injects faults on its fallible path. It
// satisfies device.Device and device.FallibleDevice; build one with Wrap.
// The wrapper contract is DESIGN.md, "Wrapping a device".
type Injector struct {
	dev   device.Device
	cfg   Config
	class device.FaultClass

	rng uint64

	// One episode: remaining failed attempts pending at pendingOff.
	remaining  int
	pendingOff int64
	// clearedOff remembers the offset whose episode just drained: the
	// next request there succeeds unconditionally (and consumes no
	// randomness), so consecutive failures at one offset never exceed
	// MaxConsecutive — a caller that makes more attempts than that is
	// guaranteed to ride every episode out.
	clearedOff   int64
	clearedValid bool

	stats Stats
}

// Wrap builds an injector over d and returns it twice: as the device to
// register in d's place, and as the *Injector for stats inspection.
func Wrap(d device.Device, cfg Config) (device.Device, *Injector) {
	inj := &Injector{dev: d, cfg: cfg, class: classFor(d.Info().Level)}
	inj.reseed()
	return inj, inj
}

// classFor maps a storage level to the fault class it produces.
func classFor(l device.Level) device.FaultClass {
	switch l {
	case device.LevelNFS:
		return device.FaultTimeout
	case device.LevelTape:
		return device.FaultMount
	default:
		return device.FaultTransient
	}
}

// extraFor returns the virtual-time cost of one failed attempt.
func extraFor(class device.FaultClass) simclock.Duration {
	switch class {
	case device.FaultTimeout:
		return TimeoutExtra
	case device.FaultMount:
		return MountExtra
	default:
		return TransientExtra
	}
}

// reseed restarts the RNG stream from the configured seed.
func (i *Injector) reseed() {
	i.rng = uint64(i.cfg.Seed) ^ splitmix.Gamma
	i.remaining = 0
}

// rand01 draws a float in [0,1) from the injector's private SplitMix64
// stream.
func (i *Injector) rand01() float64 { return float64(splitmix.Next(&i.rng)>>11) / (1 << 53) }

// Info implements device.Device.
func (i *Injector) Info() device.Info { return i.dev.Info() }

// Underlying returns the wrapped device.
func (i *Injector) Underlying() device.Device { return i.dev }

// Stats returns the injector's cumulative activity counters.
func (i *Injector) Stats() Stats { return i.stats }

// Reset implements device.Device: the underlying device is reset and the
// RNG stream reseeded, so a repeated run replays the same fault schedule
// (the between-trials contract of Kernel.ResetDeviceState).
func (i *Injector) Reset() {
	i.dev.Reset()
	i.reseed()
	i.remaining = 0
	i.clearedValid = false
}

// Read implements the infallible device path. Code that can observe
// faults must use device.ReadErr; reaching this method with an injected
// fault is a programming error (a caller skipped the fallible path), not
// a simulation outcome, so it panics rather than losing the error.
func (i *Injector) Read(c *simclock.Clock, off, length int64) {
	if err := i.ReadErr(c, off, length); err != nil {
		panic(fmt.Sprintf("faults: infallible Read on a faulted device: %v", err))
	}
}

// Write implements the infallible device path; see Read.
func (i *Injector) Write(c *simclock.Clock, off, length int64) {
	if err := i.WriteErr(c, off, length); err != nil {
		panic(fmt.Sprintf("faults: infallible Write on a faulted device: %v", err))
	}
}

// ReadErr implements device.FallibleDevice.
func (i *Injector) ReadErr(c *simclock.Clock, off, length int64) error {
	if err := i.perturb(c, off); err != nil {
		return err
	}
	return device.ReadErr(i.dev, c, off, length)
}

// WriteErr implements device.FallibleDevice.
func (i *Injector) WriteErr(c *simclock.Clock, off, length int64) error {
	if err := i.perturb(c, off); err != nil {
		return err
	}
	return device.WriteErr(i.dev, c, off, length)
}

// perturb decides the fate of one request: continue the pending episode,
// start a new one, spike, or pass. Only fresh requests consume RNG draws;
// retries of a faulted offset do not, so fault schedules are independent
// of the caller's retry policy.
func (i *Injector) perturb(c *simclock.Clock, off int64) error {
	if i.remaining > 0 && off == i.pendingOff {
		i.remaining--
		if i.remaining == 0 {
			i.clearedOff, i.clearedValid = off, true
		}
		return i.fail(c)
	}
	i.remaining = 0
	if i.clearedValid && off == i.clearedOff {
		// The retry completing a drained episode: always succeeds, no
		// draw consumed.
		i.clearedValid = false
		return nil
	}
	if !i.cfg.enabled() {
		return nil
	}
	if i.cfg.PFault > 0 && i.rand01() < i.cfg.PFault {
		max := i.cfg.MaxConsecutive
		if max < 1 {
			max = 1
		}
		i.remaining = 1 + int(splitmix.Next(&i.rng)%uint64(max)) // 1..max attempts fail
		i.pendingOff = off
		i.remaining--
		if i.remaining == 0 {
			i.clearedOff, i.clearedValid = off, true
		}
		return i.fail(c)
	}
	if i.cfg.PSpike > 0 && i.rand01() < i.cfg.PSpike {
		frac := i.rand01()
		spike := simclock.Duration(frac * float64(i.cfg.SpikeMax))
		if spike <= 0 {
			spike = 1
		}
		c.Advance(spike)
		i.stats.Spikes++
	}
	return nil
}

// fail charges the failed attempt's cost and returns its Fault.
func (i *Injector) fail(c *simclock.Clock) error {
	extra := extraFor(i.class)
	c.Advance(extra)
	i.stats.Faults++
	return &device.Fault{Dev: i.dev.Info().ID, Class: i.class, Extra: extra, Seq: i.stats.Faults}
}
