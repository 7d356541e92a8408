package faults

import (
	"errors"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
)

// newInjected wraps a fresh device of the given constructor in an
// injector and returns both halves of Wrap.
func newInjected(mk func(device.ID) device.Device, cfg Config) (device.Device, *Injector) {
	return Wrap(mk(0), cfg)
}

func mkDisk(id device.ID) device.Device { return device.NewDisk(device.DefaultDiskConfig(id)) }
func mkCD(id device.ID) device.Device   { return device.NewCDROM(device.DefaultCDROMConfig(id)) }
func mkNFS(id device.ID) device.Device  { return device.NewNFS(device.DefaultNFSConfig(id)) }
func mkTape(id device.ID) device.Device {
	return device.NewTapeLibrary(device.DefaultTapeLibraryConfig(id))
}

// schedule issues n fresh 4 KiB reads at distinct offsets and records
// which of them faulted, retrying each faulted offset to completion when
// retry is set (so pending episodes never spill into the next offset the
// same way in both modes).
func schedule(t *testing.T, d device.Device, n int, retry bool) []bool {
	t.Helper()
	c := simclock.New()
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		off := int64(i) * 4096
		err := device.ReadErr(d, c, off, 4096)
		out[i] = err != nil
		if retry {
			for attempt := 0; err != nil; attempt++ {
				if attempt > 100 {
					t.Fatalf("offset %d: still failing after %d retries", off, attempt)
				}
				err = device.ReadErr(d, c, off, 4096)
			}
		}
	}
	return out
}

func TestSameSeedSameSchedule(t *testing.T) {
	cfg := Config{Seed: 42, PFault: 0.3, MaxConsecutive: 3}
	a, _ := newInjected(mkDisk, cfg)
	b, _ := newInjected(mkDisk, cfg)
	sa := schedule(t, a, 200, false)
	sb := schedule(t, b, 200, false)
	faulted := 0
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("schedules diverge at request %d", i)
		}
		if sa[i] {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("PFault=0.3 over 200 requests injected no faults")
	}
	c, _ := newInjected(mkDisk, Config{Seed: 43, PFault: 0.3, MaxConsecutive: 3})
	sc := schedule(t, c, 200, false)
	same := true
	for i := range sa {
		if sa[i] != sc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-request schedules")
	}
}

// TestScheduleIndependentOfRetryPolicy is the determinism contract that
// makes fault schedules identical at any -workers value and however the
// caller retries: retries consume no randomness, so whether the
// caller retries to completion or abandons after the first failure, the
// same fresh requests fault.
func TestScheduleIndependentOfRetryPolicy(t *testing.T) {
	cfg := Config{Seed: 7, PFault: 0.3, MaxConsecutive: 3}
	a, _ := newInjected(mkDisk, cfg)
	b, _ := newInjected(mkDisk, cfg)
	retried := schedule(t, a, 200, true)
	abandoned := schedule(t, b, 200, false)
	for i := range retried {
		if retried[i] != abandoned[i] {
			t.Fatalf("fresh-request fault schedule depends on retry behaviour (request %d)", i)
		}
	}
}

// TestEpisodeBounded checks the episode contract: at one offset, at most
// MaxConsecutive consecutive attempts fail, and the attempt that finds
// the episode drained always succeeds — so a caller making more than
// MaxConsecutive attempts can never see EIO from a single injector.
func TestEpisodeBounded(t *testing.T) {
	for _, max := range []int{1, 2, 3, 5} {
		d, _ := newInjected(mkDisk, Config{Seed: 11, PFault: 1, MaxConsecutive: max})
		c := simclock.New()
		for i := 0; i < 50; i++ {
			off := int64(i) * 4096
			fails := 0
			for device.ReadErr(d, c, off, 4096) != nil {
				fails++
				if fails > max {
					t.Fatalf("MaxConsecutive=%d: %d consecutive failures at offset %d", max, fails, off)
				}
			}
			if fails == 0 {
				t.Fatalf("MaxConsecutive=%d: PFault=1 did not fault fresh offset %d", max, off)
			}
		}
	}
}

// TestLengthOneEpisodeDoesNotChain is the regression for the bug where a
// drawn episode of length 1 left the cleared marker unset, letting the
// completing retry start a fresh episode at the same offset and chain
// failures past any retry budget.
func TestLengthOneEpisodeDoesNotChain(t *testing.T) {
	d, _ := newInjected(mkDisk, Config{Seed: 3, PFault: 1, MaxConsecutive: 1})
	c := simclock.New()
	for i := 0; i < 100; i++ {
		off := int64(i) * 4096
		if err := device.ReadErr(d, c, off, 4096); err == nil {
			t.Fatalf("PFault=1: fresh request at %d did not fault", off)
		}
		if err := device.ReadErr(d, c, off, 4096); err != nil {
			t.Fatalf("retry completing a length-1 episode failed: %v", err)
		}
	}
}

func TestFaultClassAndCostPerLevel(t *testing.T) {
	cases := []struct {
		name  string
		mk    func(device.ID) device.Device
		class device.FaultClass
		extra simclock.Duration
	}{
		{"disk", mkDisk, device.FaultTransient, TransientExtra},
		{"cdrom", mkCD, device.FaultTransient, TransientExtra},
		{"nfs", mkNFS, device.FaultTimeout, TimeoutExtra},
		{"tape", mkTape, device.FaultMount, MountExtra},
	}
	for _, tc := range cases {
		d, inj := newInjected(tc.mk, Config{Seed: 1, PFault: 1, MaxConsecutive: 1})
		c := simclock.New()
		err := device.ReadErr(d, c, 0, 4096)
		var f *device.Fault
		if !errors.As(err, &f) {
			t.Fatalf("%s: error %v does not carry *device.Fault", tc.name, err)
		}
		if f.Class != tc.class {
			t.Errorf("%s: fault class %v, want %v", tc.name, f.Class, tc.class)
		}
		if f.Extra != tc.extra {
			t.Errorf("%s: fault extra %v, want %v", tc.name, f.Extra, tc.extra)
		}
		// The failed attempt costs exactly Extra: the underlying device is
		// never reached.
		if c.Now() != tc.extra {
			t.Errorf("%s: failed attempt advanced clock by %v, want %v", tc.name, c.Now(), tc.extra)
		}
		if inj.Stats().Faults != 1 {
			t.Errorf("%s: stats count %d faults, want 1", tc.name, inj.Stats().Faults)
		}
	}
}

// TestWrapForwardsMarkers checks that interposition forwards Info
// verbatim — the ChunkSize and ReadOnly capabilities the VFS enforces ride
// in it — and exposes the fallible path.
func TestWrapForwardsMarkers(t *testing.T) {
	cfg := Config{Seed: 1, PFault: 0.1, MaxConsecutive: 1}
	for _, mk := range []func(device.ID) device.Device{mkDisk, mkCD, mkTape} {
		raw := mk(0)
		w, _ := Wrap(raw, cfg)
		if got, want := w.Info(), raw.Info(); got != want {
			t.Errorf("wrapped Info = %+v, raw device's is %+v", got, want)
		}
		if _, ok := w.(device.FallibleDevice); !ok {
			t.Errorf("wrapped %s does not expose the fallible path", raw.Info().Name)
		}
	}
	cd, tape, disk := mkCD(0).Info(), mkTape(0).Info(), mkDisk(0).Info()
	if !cd.ReadOnly || tape.ChunkSize <= 0 || disk.ReadOnly || disk.ChunkSize != 0 {
		t.Error("raw devices report the wrong capabilities: CD-ROM must be read-only, tape chunked, disk neither")
	}
}

// TestResetReplaysSchedule checks the between-trials contract: after
// Reset, the same access sequence sees the identical fault schedule and
// identical virtual-time costs.
func TestResetReplaysSchedule(t *testing.T) {
	cfg := Config{Seed: 99, PFault: 0.25, MaxConsecutive: 3, PSpike: 0.2, SpikeMax: 20 * simclock.Millisecond}
	raw := mkDisk(0)
	wrapped, inj := Wrap(raw, cfg)

	trial := func() ([]bool, []simclock.Duration) {
		c := simclock.New()
		var faults []bool
		var deltas []simclock.Duration
		for i := 0; i < 100; i++ {
			off := int64(i) * 4096
			before := c.Now()
			err := device.ReadErr(wrapped, c, off, 4096)
			faults = append(faults, err != nil)
			for err != nil {
				err = device.ReadErr(wrapped, c, off, 4096)
			}
			deltas = append(deltas, c.Now()-before)
		}
		return faults, deltas
	}

	f1, d1 := trial()
	wrapped.Reset()
	f2, d2 := trial()
	for i := range f1 {
		if f1[i] != f2[i] || d1[i] != d2[i] {
			t.Fatalf("replay diverges at request %d: fault %v/%v cost %v/%v",
				i, f1[i], f2[i], d1[i], d2[i])
		}
	}
	if inj.Stats().Faults == 0 {
		t.Fatal("trial injected no faults; replay test is vacuous")
	}
}

func TestSpikesAdvanceClockWithoutFailing(t *testing.T) {
	d, inj := newInjected(mkDisk, Config{Seed: 5, PSpike: 1, SpikeMax: 20 * simclock.Millisecond})
	healthy := mkDisk(0)
	c, hc := simclock.New(), simclock.New()
	for i := 0; i < 10; i++ {
		if err := device.ReadErr(d, c, int64(i)*4096, 4096); err != nil {
			t.Fatalf("PFault=0 injector returned error: %v", err)
		}
		healthy.Read(hc, int64(i)*4096, 4096)
	}
	if inj.Stats().Spikes != 10 {
		t.Fatalf("PSpike=1 injected %d spikes over 10 requests", inj.Stats().Spikes)
	}
	if c.Now() <= hc.Now() {
		t.Fatalf("spiked sequence (%v) not slower than healthy (%v)", c.Now(), hc.Now())
	}
}

func TestInfalliblePathPanicsOnFault(t *testing.T) {
	for _, c := range []struct {
		name   string
		access func(device.Device)
	}{
		{"Read", func(d device.Device) { d.Read(simclock.New(), 0, 4096) }},
		{"Write", func(d device.Device) { d.Write(simclock.New(), 0, 4096) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, _ := newInjected(mkDisk, Config{Seed: 1, PFault: 1, MaxConsecutive: 1})
			defer func() {
				if recover() == nil {
					t.Fatalf("infallible %s on a faulted device did not panic", c.name)
				}
			}()
			c.access(d)
		})
	}
}

// TestStackedInjectorPassesInnerFaults: an injector that perturbs nothing
// over one that fails every access returns the inner fault on both
// fallible paths.
func TestStackedInjectorPassesInnerFaults(t *testing.T) {
	inner, _ := newInjected(mkDisk, Config{Seed: 1, PFault: 1, MaxConsecutive: 1 << 20})
	outer, _ := Wrap(inner, Config{Seed: 2})
	c := simclock.New()
	var f *device.Fault
	if err := device.ReadErr(outer, c, 0, 4096); !errors.As(err, &f) {
		t.Errorf("ReadErr through the outer injector: %v, want the inner *device.Fault", err)
	}
	if err := device.WriteErr(outer, c, 0, 4096); !errors.As(err, &f) {
		t.Errorf("WriteErr through the outer injector: %v, want the inner *device.Fault", err)
	}
}

func TestProfileConfig(t *testing.T) {
	for _, name := range Profiles() {
		cfg, ok := ProfileConfig(name, 123)
		if !ok {
			t.Fatalf("listed profile %q rejected", name)
		}
		if name == "off" && cfg.enabled() {
			t.Error(`profile "off" can perturb requests`)
		}
		if name != "off" && !cfg.enabled() {
			t.Errorf("profile %q cannot perturb requests", name)
		}
		if cfg.Seed != 123 {
			t.Errorf("profile %q dropped the seed", name)
		}
	}
	if _, ok := ProfileConfig("bogus", 0); ok {
		t.Fatal("unknown profile accepted")
	}
}
