package experiments

import (
	"errors"
	"strings"
	"testing"

	"sleds/internal/vfs"
)

// efleetReport runs the quick-scale grid once and shares it across the
// gate tests: the experiment is deterministic, so one run is the run.
var efleetOnce struct {
	rep EFleetReport
	err error
	ran bool
}

func efleetReport(t *testing.T) EFleetReport {
	t.Helper()
	if !efleetOnce.ran {
		efleetOnce.rep, efleetOnce.err = EFleet(QuickConfig(), 0)
		efleetOnce.ran = true
	}
	if efleetOnce.err != nil {
		t.Fatal(efleetOnce.err)
	}
	return efleetOnce.rep
}

func efleetCellOrFatal(t *testing.T, rep EFleetReport, scenario, policy string) efleetCell {
	t.Helper()
	c, ok := rep.cell(scenario, policy)
	if !ok {
		t.Fatalf("no (%s, %s) cell in the report", scenario, policy)
	}
	return c
}

// TestEFleetNoReadFailures: every read completes within its retry budget
// in every cell — failover absorbs the injected faults.
func TestEFleetNoReadFailures(t *testing.T) {
	rep := efleetReport(t)
	for _, row := range rep.Rows {
		if row.Cell.errs != 0 {
			t.Errorf("(%s, %s): %d reads exhausted their retry budget", row.Scenario, row.Policy, row.Cell.errs)
		}
	}
}

// TestEFleetDegradedGates pins the degraded-scenario ordering the fleet
// tier exists for: SLED routing beats blind rotation on p99 (demotion
// keeps traffic off the timeout replica), and hedging beats non-hedged
// SLED on p99 (the probe-back reads' timeouts are masked by the hedge)
// without inflating p50 by more than 10%.
func TestEFleetDegradedGates(t *testing.T) {
	rep := efleetReport(t)
	rr := efleetCellOrFatal(t, rep, "degraded", "rr")
	sled := efleetCellOrFatal(t, rep, "degraded", "sled")
	hedge := efleetCellOrFatal(t, rep, "degraded", "hedge")
	if sled.p99Ms >= rr.p99Ms {
		t.Errorf("degraded p99: sled %.4g ms not below rr %.4g ms", sled.p99Ms, rr.p99Ms)
	}
	if hedge.p99Ms >= sled.p99Ms {
		t.Errorf("degraded p99: hedge %.4g ms not below sled %.4g ms", hedge.p99Ms, sled.p99Ms)
	}
	if hedge.p50Ms > sled.p50Ms*1.10 {
		t.Errorf("degraded p50: hedge %.4g ms inflates sled %.4g ms beyond the 10%% bound", hedge.p50Ms, sled.p50Ms)
	}
	if sled.faults == 0 {
		t.Error("degraded sled absorbed no faults: the scenario exercised nothing")
	}
	if hedge.hedged == 0 {
		t.Error("degraded hedge never fired a hedge")
	}
}

// TestEFleetHotspotGates: cache-affinity routing aggregates the fleet's
// server caches, so SLED beats blind rotation on p99 and on the median.
func TestEFleetHotspotGates(t *testing.T) {
	rep := efleetReport(t)
	rr := efleetCellOrFatal(t, rep, "hotspot", "rr")
	sled := efleetCellOrFatal(t, rep, "hotspot", "sled")
	if sled.p99Ms >= rr.p99Ms {
		t.Errorf("hotspot p99: sled %.4g ms not below rr %.4g ms", sled.p99Ms, rr.p99Ms)
	}
	if sled.p50Ms >= rr.p50Ms {
		t.Errorf("hotspot p50: sled %.4g ms not below rr %.4g ms", sled.p50Ms, rr.p50Ms)
	}
}

// TestEFleetRenderShape: the rendered block lists every scenario x
// policy row (the fleet-smoke diff target).
func TestEFleetRenderShape(t *testing.T) {
	rep := efleetReport(t)
	out := rep.Render()
	if !strings.HasPrefix(out, "== efleet:") {
		t.Fatalf("render does not open with the efleet banner:\n%s", out)
	}
	for _, scen := range efleetScenarios {
		if got := strings.Count(out, scen); got < len(efleetPolicies) {
			t.Errorf("scenario %q appears %d times, want >= %d:\n%s", scen, got, len(efleetPolicies), out)
		}
	}
}

// TestEFleetSurfacesPointErrors: a point that cannot set up its fleet —
// here, a file larger than a replica's 4 GiB disk — ends the efleet entry
// with that error instead of a report of the cells that ran.
func TestEFleetSurfacesPointErrors(t *testing.T) {
	cfg := microConfig()
	cfg.PageSize = 32 << 20 // the 256-page fleet file is 8 GiB
	for _, e := range registry() {
		if e.IDs[0] == "efleet" {
			if _, err := e.Run(cfg, nil, 0); !errors.Is(err, vfs.ErrNoSpace) {
				t.Fatalf("efleet with an oversized file: err = %v, want one wrapping vfs.ErrNoSpace", err)
			}
			return
		}
	}
	t.Fatal("no efleet entry in the registry")
}
