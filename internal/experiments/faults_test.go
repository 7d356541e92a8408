package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sleds/internal/vfs"
)

func TestEFaultsRoutesAroundDegradedDevice(t *testing.T) {
	cfg := tinyConfig()
	r, err := EFaults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Figure
	if len(f.Series) != 4 {
		t.Fatalf("got %d series, want 4", len(f.Series))
	}
	blind, sleds := f.Series[2], f.Series[3]
	if blind.Name != "degraded blind" || sleds.Name != "degraded with SLEDs" {
		t.Fatalf("series names %q/%q", blind.Name, sleds.Name)
	}
	for i := range blind.Points {
		b, s := blind.Points[i].Mean, sleds.Points[i].Mean
		if s >= b {
			t.Errorf("size %v MB: SLED-guided %v s not below blind %v s on the degraded machine",
				blind.Points[i].X, s, b)
		}
	}
	// Healthy rows pay no routing penalty worth the name over the sweep.
	// (Per-point the modes may differ: at the smallest sizes the full-file
	// delivery estimate can legitimately prefer the larger disk copy even
	// though grep stops at the needle, costing a little.)
	hb, hs := f.Series[0], f.Series[1]
	var blindTotal, sledsTotal float64
	for i := range hb.Points {
		blindTotal += hb.Points[i].Mean
		sledsTotal += hs.Points[i].Mean
	}
	if sledsTotal > blindTotal*1.25 {
		t.Errorf("healthy with SLEDs %v s over the sweep, >25%% above blind %v s", sledsTotal, blindTotal)
	}

	// Fault accounting: the blind degraded cells absorb the retry tail
	// (faults and retries, never EIO — the injector's episodes stay inside
	// the default retry budget); the SLED-guided cells route around the
	// degraded device.
	var sawBlind, sawSleds bool
	for _, c := range r.Counters {
		if c.EIOs != 0 {
			t.Errorf("%s cell at %v MB surfaced %d EIOs, want 0", c.Mode, c.SizeMB, c.EIOs)
		}
		switch c.Mode {
		case "blind":
			sawBlind = true
			if c.DeviceFaults == 0 || c.Retries == 0 || c.RetryWaitSec == 0 {
				t.Errorf("blind cell at %v MB shows no retry tail: %+v", c.SizeMB, c)
			}
		case "sleds":
			sawSleds = true
			if c.DeviceFaults != 0 {
				t.Errorf("SLED-guided cell at %v MB hit the degraded device: %+v", c.SizeMB, c)
			}
		default:
			t.Errorf("unknown counter mode %q", c.Mode)
		}
	}
	if !sawBlind || !sawSleds {
		t.Fatalf("counters missing a mode: %+v", r.Counters)
	}

	// The degradation-aware SLED surface: the demo panels show the same
	// file at full confidence before and graded down after, and pruning
	// drops the degraded copy while keeping the healthy one.
	for _, line := range r.HealthyPanel {
		if strings.Contains(line, "conf=") {
			t.Errorf("healthy panel line %q carries a confidence grade", line)
		}
	}
	degradedConf := false
	for _, line := range r.DegradedPanel {
		if strings.Contains(line, "conf=") {
			degradedConf = true
		}
	}
	if !degradedConf {
		t.Errorf("degraded panel %v shows no confidence grade", r.DegradedPanel)
	}
	if len(r.Kept) != 1 || r.Kept[0] != "/data/local.log" {
		t.Errorf("kept = %v, want [/data/local.log]", r.Kept)
	}
	if len(r.Pruned) != 1 || r.Pruned[0] != "/data/remote.log" {
		t.Errorf("pruned = %v, want [/data/remote.log]", r.Pruned)
	}
}

// TestEveryExperimentUnderFaultProfiles holds the fault-path contract:
// an injected fault surfaces as an error, never as a panic. Every registry
// entry runs under the light and the heavy whole-suite profile, which
// interposes an injector over every device of every machine, on top of
// any injector the experiment installs itself. A run completes or ends in
// an error wrapping vfs.ErrIO; a panic, recovered here or turned into a
// point error by RunGrid, fails the test. The entries that must complete
// under a profile have tests of their own:
// TestEFaultsSurvivesGlobalFaultProfile and
// TestAblationZonesUnderGlobalFaultProfile; TestEFleetHonoursFaultProfile
// checks that efleet's replicas take the profile at all.
func TestEveryExperimentUnderFaultProfiles(t *testing.T) {
	for _, e := range registry() {
		name := strings.Join(e.IDs, "+")
		for _, profile := range []string{"light", "heavy"} {
			t.Run(name+"/"+profile, func(t *testing.T) {
				if testing.Short() && name == "escale" {
					t.Skip("short mode: skips escale's 10,000-stream points")
				}
				t.Parallel()
				cfg := microConfig()
				cfg.FaultProfile = profile
				err := func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panicked: %v", p)
						}
					}()
					_, err = e.Run(cfg, nil, 0)
					return err
				}()
				if err != nil && !errors.Is(err, vfs.ErrIO) {
					t.Fatalf("%s under -faults %s: %v", name, profile, err)
				}
			})
		}
	}
}

// TestEFaultsSurvivesGlobalFaultProfile is the stacked-injector case: a
// whole-suite -faults profile interposes a second injector over every
// device, on top of the experiment's own NFS injector. The combined fault
// stream can out-fail the retry policy, so grep may see EIO on one copy —
// the experiment must skip that file and still find the needle on the
// other, never error out.
func TestEFaultsSurvivesGlobalFaultProfile(t *testing.T) {
	cfg := tinyConfig()
	cfg.FaultProfile = "heavy"
	if _, err := EFaults(cfg); err != nil {
		t.Fatalf("EFaults under a stacked heavy profile: %v", err)
	}
}
