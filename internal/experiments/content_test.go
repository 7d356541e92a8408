package experiments

import (
	"slices"
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

	for si, sched := range scaleSchedulers {
		zero, err := scalePoint(cfg, 0, si, nil)
		if err != nil {
			t.Fatal(err)
		}
		withText, err := scalePoint(cfg, 0, si, text)
		if err != nil {
			t.Fatal(err)
		}
		if zero != withText || zero[1].Mean == 0 {
			t.Errorf("escale n=%d %s: zero-filled %+v, text %+v", scaleStreams[0], sched, zero, withText)
		}
	}

	for classIdx, class := range trace.Classes() {
		if class != "olap" && class != "mixed" {
			continue
		}
		for mode := range modeNames {
			sstf := slices.Index(etraceSchedulers, "sstf")
			zero, err := etracePoint(cfg, classIdx, sstf, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			withText, err := etracePoint(cfg, classIdx, sstf, mode, text)
			if err != nil {
				t.Fatal(err)
			}
			if zero != withText || zero.makespanSec == 0 {
				t.Errorf("etrace %s mode %d: zero-filled %+v, text %+v", class, mode, zero, withText)
			}
		}
	}
}
