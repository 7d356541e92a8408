package core

import (
	"math"
	"strings"
	"testing"

	"sleds/internal/device"
	"sleds/internal/simclock"
	"sleds/internal/workload"
)

func TestObserveFaultAccumulatesPenalty(t *testing.T) {
	tab := NewTable()
	id := device.ID(1)
	if got := tab.HealthPenalty(id, 0); got != 0 {
		t.Fatalf("penalty before any fault = %v, want 0", got)
	}
	tab.ObserveFault(id, 100*simclock.Millisecond, 0)
	tab.ObserveFault(id, 200*simclock.Millisecond, 0)
	if got := tab.HealthPenalty(id, 0); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("penalty after 100ms+200ms faults = %v, want 0.3", got)
	}
	if got := tab.HealthPenalty(device.ID(2), 0); got != 0 {
		t.Fatalf("other device's penalty = %v, want 0", got)
	}
}

func TestHealthPenaltyHalvesAtHalfLife(t *testing.T) {
	tab := NewTable()
	tab.SetHealthHalfLife(10 * simclock.Second)
	id := device.ID(1)
	tab.ObserveFault(id, simclock.Second, 0)
	cases := []struct {
		at   simclock.Duration
		want float64
	}{
		{0, 1},
		{10 * simclock.Second, 0.5},
		{20 * simclock.Second, 0.25},
		{30 * simclock.Second, 0.125},
	}
	for _, tc := range cases {
		if got := tab.HealthPenalty(id, tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("penalty at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
	// The reads above applied the decay lazily; time must not rewind it.
	if got := tab.HealthPenalty(id, 10*simclock.Second); math.Abs(got-0.125) > 1e-9 {
		t.Errorf("penalty after a lagging-clock read = %v, want the already-decayed 0.125", got)
	}
}

func TestHealthPenaltyVanishesEventually(t *testing.T) {
	tab := NewTable()
	tab.SetHealthHalfLife(simclock.Second)
	id := device.ID(1)
	tab.ObserveFault(id, simclock.Second, 0)
	if got := tab.HealthPenalty(id, 100*simclock.Second); got != 0 {
		t.Fatalf("penalty 100 half-lives later = %v, want exactly 0", got)
	}
}

func TestConfidenceGrading(t *testing.T) {
	if got := confidence(0.02, 0); got != 1 {
		t.Fatalf("healthy confidence = %v, want 1", got)
	}
	// Penalty 0.18 s over base 0.02 s: confidence 0.02/0.20 = 0.1.
	if got := confidence(0.02, 0.18); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("degraded confidence = %v, want 0.1", got)
	}
	// A penalty over a zero base leaves nothing of the estimate to trust.
	if got := confidence(0, 1); got != 0 {
		t.Fatalf("confidence of a penalised zero-latency entry = %v, want 0", got)
	}
}

func TestResetHealthAndHalfLifeDefault(t *testing.T) {
	tab := NewTable()
	id := device.ID(1)
	tab.ObserveFault(id, simclock.Second, 0)
	tab.ResetHealth()
	if got := tab.HealthPenalty(id, 0); got != 0 {
		t.Fatalf("penalty after ResetHealth = %v, want 0", got)
	}
	tab.SetHealthHalfLife(-1)
	if tab.halfLife != DefaultHealthHalfLife {
		t.Fatalf("non-positive half-life set %v, want default restored", tab.halfLife)
	}
}

// TestQueryFoldsHealthIntoUncachedPages checks the degradation path of
// FSLEDS_GET end to end: after faults, on-device pages report the
// calibrated latency plus the decayed penalty and a confidence below 1,
// while resident pages are untouched.
func TestQueryFoldsHealthIntoUncachedPages(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	n, err := k.Create("/d/f", disk, workload.NewText(1, 4*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(healthy) != 1 || healthy[0].Confidence != 1 {
		t.Fatalf("healthy cold query = %+v, want one full-confidence SLED", healthy)
	}
	baseLat := healthy[0].Latency

	tab.ObserveFault(disk, 2*simclock.Second, k.Clock.Now())
	degraded, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(degraded, n.Size()); err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 1 {
		t.Fatalf("degraded query = %+v, want one SLED", degraded)
	}
	s := degraded[0]
	if math.Abs(s.Latency-(baseLat+2)) > 1e-9 {
		t.Errorf("degraded latency = %v, want base %v + 2s penalty", s.Latency, baseLat)
	}
	wantConf := baseLat / (baseLat + 2)
	if math.Abs(s.Confidence-wantConf) > 1e-12 {
		t.Errorf("degraded confidence = %v, want %v", s.Confidence, wantConf)
	}
	if !strings.Contains(s.String(), "conf=") {
		t.Errorf("degraded SLED renders %q without a confidence grade", s.String())
	}
	if strings.Contains(healthy[0].String(), "conf=") {
		t.Errorf("healthy SLED renders %q with a confidence grade", healthy[0].String())
	}

	// A resident page keeps the memory estimates at full confidence, so a
	// degraded file splits at the residency boundary.
	f, err := k.Open("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, testPage)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	mixed, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed) != 2 {
		t.Fatalf("half-warm degraded query = %+v, want 2 SLEDs", mixed)
	}
	if mixed[0].Confidence != 1 {
		t.Errorf("resident SLED confidence = %v, want 1", mixed[0].Confidence)
	}
	if mixed[1].Confidence >= 1 {
		t.Errorf("on-device SLED confidence = %v, want < 1", mixed[1].Confidence)
	}
}

// TestQueryHealthRecovers: as the penalty decays, estimates converge back
// to the calibrated values and confidence back to 1.
func TestQueryHealthRecovers(t *testing.T) {
	k, disk, tab := testMachine(t, 64)
	tab.SetHealthHalfLife(simclock.Second)
	n, err := k.Create("/d/f", disk, workload.NewText(1, 2*testPage, testPage))
	if err != nil {
		t.Fatal(err)
	}
	tab.ObserveFault(disk, simclock.Second, k.Clock.Now())
	before, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	k.Clock.Advance(100 * simclock.Second)
	after, err := Query(k, tab, n)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Latency >= before[0].Latency {
		t.Errorf("latency did not recover: %v then %v", before[0].Latency, after[0].Latency)
	}
	if after[0].Confidence != 1 {
		t.Errorf("confidence %v after 100 half-lives, want 1", after[0].Confidence)
	}
}
