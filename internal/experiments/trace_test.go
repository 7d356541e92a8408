package experiments

import (
	"strings"
	"testing"
)

// TestETraceWinAndLossClasses pins the experiment's headline shape at tiny
// scale: SLED-guided replay beats blind replay by at least 1.3x on the
// olap class (cached tails consumed before eviction), loses on oltp (the
// gather window delays cache hits), and leaves the bursty makespan
// untouched (simultaneous arrivals give the gate nothing to wait for).
func TestETraceWinAndLossClasses(t *testing.T) {
	r, err := ETrace(tinyConfig(), "olap", "oltp", "bursty")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3*len(etraceSchedulers) {
		t.Fatalf("%d rows, want %d", len(r.Rows), 3*len(etraceSchedulers))
	}
	for _, row := range r.Rows {
		switch row.Class {
		case "olap":
			if row.Speedup < 1.3 {
				t.Errorf("olap/%s: SLED speedup %.3g, want >= 1.3", row.Sched, row.Speedup)
			}
			if row.MakespanSpeedup < 1.1 {
				t.Errorf("olap/%s: makespan speedup %.3g, want > 1.1", row.Sched, row.MakespanSpeedup)
			}
		case "oltp":
			if row.Speedup >= 1 {
				t.Errorf("oltp/%s: SLED speedup %.3g, want < 1 (gather delay is pure loss)", row.Sched, row.Speedup)
			}
		case "bursty":
			if row.MakespanSpeedup < 0.95 || row.MakespanSpeedup > 1.05 {
				t.Errorf("bursty/%s: makespan speedup %.3g, want ~1", row.Sched, row.MakespanSpeedup)
			}
		}
	}
}

func TestETraceRejectsUnknownClass(t *testing.T) {
	_, err := ETrace(tinyConfig(), "tpcc")
	if err == nil {
		t.Fatal("unknown class accepted")
	}
	if !strings.Contains(err.Error(), "olap") {
		t.Fatalf("error %q does not list the valid classes", err)
	}
}

// TestETraceSubsetStable checks that a class's cells do not depend on
// which subset it is selected in (seeds derive from canonical indices).
func TestETraceSubsetStable(t *testing.T) {
	full, err := ETrace(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	olap, err := ETrace(tinyConfig(), "olap")
	if err != nil {
		t.Fatal(err)
	}
	var fullOlap []ETraceRow
	for _, row := range full.Rows {
		if row.Class == "olap" {
			fullOlap = append(fullOlap, row)
		}
	}
	if len(fullOlap) != len(olap.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(fullOlap), len(olap.Rows))
	}
	for i := range olap.Rows {
		if olap.Rows[i] != fullOlap[i] {
			t.Fatalf("olap row %d differs between subset and full runs:\n%+v\nvs\n%+v",
				i, olap.Rows[i], fullOlap[i])
		}
	}
}
