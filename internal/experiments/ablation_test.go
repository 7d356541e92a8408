package experiments

import (
	"math"
	"testing"
)

func TestAblationMmap(t *testing.T) {
	f, err := AblationMmap(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaRead := f.Series[0].Points[0].Mean
	viaMmap := f.Series[0].Points[1].Mean
	if viaMmap >= viaRead {
		t.Fatalf("mapped scan (%v) not cheaper than read() (%v)", viaMmap, viaRead)
	}
	// The whole gap should be roughly the memory-copy time: size/48MB/s.
	if viaMmap > viaRead/2 {
		t.Fatalf("mapped scan (%v) saved too little over read() (%v)", viaMmap, viaRead)
	}
}

func TestAblationZones(t *testing.T) {
	f, err := AblationZones(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	single := math.Abs(f.Series[0].Points[0].Mean)
	zoned := math.Abs(f.Series[0].Points[1].Mean)
	if zoned >= single {
		t.Fatalf("zoned table error (%.1f%%) not below single-entry (%.1f%%)", zoned, single)
	}
	if zoned > 10 {
		t.Fatalf("zoned estimate still off by %.1f%%", zoned)
	}
	if single < 5 {
		t.Fatalf("single-entry error only %.1f%% — the inner-cylinder placement did not bite", single)
	}
}

// TestAblationZonesUnderGlobalFaultProfile is the regression test for the
// panic `sledsbench -exp ablation-zones -faults heavy` hit: the zone probes
// ran bare device.Read calls against the injected disk. They must measure
// the healthy device under the injector, and the figure must still come
// out — the cold read goes through the injector and the kernel's retries.
func TestAblationZonesUnderGlobalFaultProfile(t *testing.T) {
	for _, profile := range []string{"light", "heavy"} {
		cfg := tinyConfig()
		cfg.FaultProfile = profile
		f, err := AblationZones(cfg)
		if err != nil {
			t.Fatalf("AblationZones under -faults %s: %v", profile, err)
		}
		if len(f.Series) != 1 || len(f.Series[0].Points) != 2 {
			t.Fatalf("-faults %s: malformed figure %+v", profile, f)
		}
	}
}
