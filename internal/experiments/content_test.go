package experiments

import (
	"testing"

	"sleds/internal/trace"
	"sleds/internal/workload"
)

// TestContentIndependence is the property escale and etrace rest on when
// they create content-free files: their programs and warm-ups move bytes
// without looking at them, so every virtual-time result is the same
// whether the pages hold zeros or generated text. mixed is the trace
// class with writes in it (full-page inserts, dirty evictions, write-back).
func TestContentIndependence(t *testing.T) {
	cfg := QuickConfig()
	text := workload.TextGen(uint64(cfg.Seed))

	for _, sched := range scaleSchedulers {
		pcfg := cfg.forPoint("escale", 0, 0)
		zSec, zEvents, err := scalePoint(pcfg, 100, sched, nil)
		if err != nil {
			t.Fatal(err)
		}
		tSec, tEvents, err := scalePoint(pcfg, 100, sched, text)
		if err != nil {
			t.Fatal(err)
		}
		if zSec != tSec || zEvents != tEvents || zEvents == 0 {
			t.Errorf("escale n=100 %s: zero-filled %v s / %v events, text %v s / %v events",
				sched, zSec, zEvents, tSec, tEvents)
		}
	}

	for classIdx, class := range trace.Classes() {
		if class != "olap" && class != "mixed" {
			continue
		}
		for _, guided := range []bool{true, false} {
			pcfg := cfg.forPoint("etrace", classIdx, 1, 0)
			zero, err := etracePoint(pcfg, cfg, classIdx, class, "sstf", guided, nil)
			if err != nil {
				t.Fatal(err)
			}
			withText, err := etracePoint(pcfg, cfg, classIdx, class, "sstf", guided, text)
			if err != nil {
				t.Fatal(err)
			}
			if zero != withText || zero.makespanSec == 0 {
				t.Errorf("etrace %s guided=%v: zero-filled %+v, text %+v", class, guided, zero, withText)
			}
		}
	}
}
