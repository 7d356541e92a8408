package experiments

import (
	"errors"
	"fmt"
	"testing"

	"sleds/internal/faults"
	"sleds/internal/vfs"
)

// TestGridSeriesLayout pins the two-axis sweep shape: RunGrid over
// (row, column) and columns give column c's points back in row order under
// names[c], at any worker count.
func TestGridSeriesLayout(t *testing.T) {
	names := []string{"a", "b", "c"}
	for _, workers := range []int{1, 4} {
		cfg := microConfig()
		cfg.Workers = workers
		points, err := RunGrid(cfg, []int{4, len(names)}, func(_ Config, at []int) (Point, error) {
			return Point{X: float64(at[0]), Mean: float64(at[1])}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for col, s := range columns(points, names) {
			if s.Name != names[col] || len(s.Points) != 4 {
				t.Fatalf("workers=%d: series %d is %q with %d points", workers, col, s.Name, len(s.Points))
			}
			for row, p := range s.Points {
				if p.X != float64(row) || p.Mean != float64(col) {
					t.Errorf("workers=%d: series %d point %d holds cell (%v, %v)", workers, col, row, p.X, p.Mean)
				}
			}
		}
	}
	_, err := RunGrid(microConfig(), []int{2, len(names)}, func(_ Config, at []int) (Point, error) {
		return Point{}, fmt.Errorf("cell %d,%d", at[0], at[1])
	})
	if err == nil || err.Error() != "cell 0,0" {
		t.Errorf("want the lowest-indexed cell's error, got %v", err)
	}
}

// TestWarmRangeSurfacesErrIO: a warm-up that runs off the end of the file
// succeeds; one the retry policy gives up on fails, so the experiment never
// measures a half-warm cache.
func TestWarmRangeSurfacesErrIO(t *testing.T) {
	cfg := tinyConfig()
	m, err := BootMachine(cfg, ProfileUnix)
	if err != nil {
		t.Fatal(err)
	}
	size := cfg.Sizes[0]
	if _, err := textFileOn(m, "nfs", 1, size, cfg.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := warmRange(m.K, "/data/testfile", size/2, size, (*vfs.File).PageIn); err != nil {
		t.Fatalf("warm-up ending in io.EOF: %v", err)
	}
	if m.K.RunStats().Faults == 0 {
		t.Fatal("warm-up read nothing")
	}
	m.K.DropCaches()
	// Every request starts a fault episode far longer than the retry budget.
	injectFaults(m.K, m.NFS, faults.Config{Seed: 7, PFault: 1, MaxConsecutive: 1000})
	if err := warmRange(m.K, "/data/testfile", size/2, size/2, (*vfs.File).PageIn); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("warm-up on a dead device returned %v, want ErrIO", err)
	}
}
