package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sleds/internal/trace"
)

// microConfig is the smallest grid that still exercises a real sweep:
// four sizes straddling the cache, two measured runs. Used by the
// parallel-vs-serial equality test, which runs every sweep twice.
func microConfig() Config {
	cfg := tinyConfig()
	cfg.Sizes = cfg.Sizes[:4]
	cfg.Runs = 2
	cfg.CDFRuns = 4
	return cfg
}

// TestRunnerIndexOrder: slot i holds the point at grid index i, whose
// coordinates run last axis fastest, at any worker count.
func TestRunnerIndexOrder(t *testing.T) {
	dims := []int{2, 3, 4}
	var want [][]int
	for a := 0; a < dims[0]; a++ {
		for b := 0; b < dims[1]; b++ {
			for c := 0; c < dims[2]; c++ {
				want = append(want, []int{a, b, c})
			}
		}
	}
	for _, workers := range []int{0, 1, 3, 16} {
		out, err := RunGrid(Config{Workers: workers}, dims, func(_ Config, at []int) ([]int, error) {
			return at, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("workers=%d: points ran at %v, want %v", workers, out, want)
		}
	}
}

func TestRunnerEmptyGrid(t *testing.T) {
	called := false
	out, err := RunGrid(Config{Workers: 4}, []int{3, 0}, func(Config, []int) (int, error) { called = true; return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid returned %v, %v", out, err)
	}
	if called {
		t.Fatal("point called on an empty grid")
	}
}

func TestRunnerLowestIndexedErrorWins(t *testing.T) {
	boom3 := errors.New("boom3")
	_, err := RunGrid(Config{Workers: 4}, []int{8}, func(_ Config, at []int) (int, error) {
		if at[0] >= 3 {
			return 0, fmt.Errorf("boom%d: %w", at[0], boom3)
		}
		return 0, nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "boom3") {
		t.Fatalf("err = %v, want the lowest-indexed failure boom3", err)
	}
}

// TestRunnerPanicSurfaces asserts requirement (c): a panicking point
// becomes an error naming its coordinates instead of crashing the process
// or hanging its worker's siblings; the healthy points still run.
func TestRunnerPanicSurfaces(t *testing.T) {
	var ran atomic.Int64
	_, err := RunGrid(Config{Workers: 4}, []int{4, 2}, func(_ Config, at []int) (int, error) {
		if at[0] == 1 && at[1] == 0 {
			panic("kaboom")
		}
		ran.Add(1)
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "point [1 0] panicked: kaboom") {
		t.Fatalf("err = %v, want the panic surfaced as point [1 0]'s error", err)
	}
	if got := ran.Load(); got != 7 {
		t.Fatalf("%d healthy points ran, want 7", got)
	}
}

// TestRunGridRefusesNestedGrid: a point may not run a grid of its own;
// the inner RunGrid returns an error, and the sweep fails with it.
func TestRunGridRefusesNestedGrid(t *testing.T) {
	_, err := RunGrid(Config{Workers: 2}, []int{2}, func(cfg Config, _ []int) (int, error) {
		inner, err := RunGrid(cfg, []int{2}, func(Config, []int) (int, error) { return 1, nil })
		return len(inner), err
	})
	if err == nil || !strings.Contains(err.Error(), "inside a grid point") {
		t.Fatalf("err = %v, want the nested grid refused", err)
	}
}

func TestRunnerPoolSizeClamps(t *testing.T) {
	if got := poolSize(64, 3); got != 3 {
		t.Fatalf("poolSize(64, 3) = %d, want 3", got)
	}
	if got := poolSize(-1, 1000); got < 1 {
		t.Fatalf("default poolSize = %d, want >= 1", got)
	}
	if got := poolSize(2, 1000); got != 2 {
		t.Fatalf("poolSize = %d, want the configured 2", got)
	}
	if got := poolSize(4, 0); got != 1 {
		t.Fatalf("poolSize(4, 0) = %d, want 1", got)
	}
}

// TestPointSeedStable locks the derivation algorithm with golden values:
// changing PointSeed silently re-seeds every experiment, so it must be a
// deliberate, test-visible act.
func TestPointSeedStable(t *testing.T) {
	golden := []struct {
		exp  string
		idxs []int
		want uint64
	}{
		{"wc-nfs", []int{0, 0}, 0x29e1881f03042af5},
		{"wc-nfs", []int{0, 1}, 0xfbc574fadc09890b},
		{"grepq-ext2", []int{15, 1}, 0x087c54b299e5f22b},
		{"wc-nfs", []int{0}, 0xab00cacbfb023c49},
	}
	for _, g := range golden {
		got := uint64(PointSeed(20000923, g.exp, g.idxs...))
		if got != g.want {
			t.Errorf("PointSeed(20000923, %q, %v) = %#x, want %#x", g.exp, g.idxs, got, g.want)
		}
		again := uint64(PointSeed(20000923, g.exp, g.idxs...))
		if got != again {
			t.Errorf("PointSeed(20000923, %q, %v) not stable: %#x then %#x", g.exp, g.idxs, got, again)
		}
	}
}

// TestPointSeedCollisionFree asserts requirement (b): across the paper
// grid, no two distinct seed derivations — (base, label, coordinates), for
// every label a sweep uses and the coordinates it passes — derive the same
// seed. Machine seeds, file seeds, fault schedules and the seeds chained
// from a point's own (the -faults injectors, efleet's file and injector)
// are all listed. A tuple used twice, as eaccuracy's machine and file
// seeds are, is one derivation.
func TestPointSeedCollisionFree(t *testing.T) {
	cfg := PaperConfig()
	seen := map[int64]string{cfg.Seed: "base"} // the ablations' machines and files
	derive := func(base int64, label string, idxs ...int) int64 {
		s := PointSeed(base, label, idxs...)
		what := fmt.Sprintf("%#x/%s%v", uint64(base), label, idxs)
		if prev, dup := seen[s]; dup && prev != what {
			t.Fatalf("seed collision: %s and %s both derive %#x", prev, what, uint64(s))
		}
		seen[s] = what
		return s
	}
	// A booted machine (BootMachine) under -faults seeds one injector per
	// device from its own seed, as efleet does per replica (devices 1..4
	// after the memory device); eremote and escale wrap nothing.
	faultSeeds := func(machine int64) {
		for _, dev := range []int{1, 2, 3, 4} {
			derive(machine, "faults", dev)
		}
	}
	machine := func(label string, idxs ...int) { faultSeeds(derive(cfg.Seed, label, idxs...)) }
	file := func(label string, idxs ...int) { derive(cfg.Seed, label, idxs...) }
	faultSeeds(cfg.Seed) // the ablations
	modes := len(modeNames)

	// grepq-ext2 and grepq-cdf-nfs seed their files from (base, size)
	// without PointSeed.
	for _, exp := range []string{"wc-nfs", "wc-cdrom", "grep-all-cdrom", "grepq-ext2"} {
		for sizeIdx := range cfg.Sizes {
			for mode := 0; mode < modes; mode++ {
				machine(exp, sizeIdx, mode)
			}
			if exp != "grepq-ext2" {
				file(exp, sizeIdx)
			}
		}
	}
	for mode := 0; mode < modes; mode++ {
		machine("grepq-cdf-nfs", 0, mode)
		machine("ehsm", 0, mode)
		derive(cfg.Seed, "eremote", 0, mode)
	}
	for _, exp := range []string{"fimhisto", "fimgbin-x4", "fimgbin-x16"} {
		for sizeIdx := range cfg.LHEASizes() {
			file(exp, sizeIdx)
			for mode := 0; mode < modes; mode++ {
				machine(exp, sizeIdx, mode)
			}
		}
	}
	for _, exp := range []string{"efind", "egmc", "efaults-demo"} {
		machine(exp)
	}
	for i := 0; i < 5; i++ {
		file("efind", i)
	}
	for _, exp := range []string{"egmc", "ehsm", "eremote", "ehints", "efaults-demo-nfs", "efaults-demo-disk", "efaults-demo-inj"} {
		file(exp, 0)
	}
	for i := 0; i < 4; i++ {
		machine("ehints", i)
	}
	for i := 0; i < 3; i++ {
		machine("etreegrep", i)
	}
	for fi := 0; fi < 8; fi++ {
		file("etreegrep", fi)
	}
	for _, fs := range []string{"ext2", "cdrom", "nfs"} {
		for sizeIdx := range cfg.Sizes {
			machine("eaccuracy-"+fs, sizeIdx)
			file("eaccuracy-"+fs, sizeIdx)
		}
	}
	for nIdx, n := range contentionStreams {
		for si := range contentionSchedulers {
			for mode := 0; mode < modes; mode++ {
				machine("econtend", nIdx, si, mode)
			}
		}
		for i := 0; i < n; i++ {
			file("econtend", nIdx*16+i)
		}
	}
	for i, n := range []int{0, 1, 2, 4, 8} {
		machine("eloadsled", i)
		file("eloadsled-target", i)
		for b := 0; b < n; b++ {
			file("eloadsled", i*16+b)
		}
	}
	for sizeIdx := range efaultsSizes(cfg) {
		for col := range efaultsNames {
			machine("efaults", sizeIdx, col)
		}
		for _, exp := range []string{"efaults-nfs", "efaults-disk", "efaults-inj"} {
			file(exp, sizeIdx)
		}
	}
	for nIdx := range scaleStreams {
		for si := range scaleSchedulers {
			derive(cfg.Seed, "escale", nIdx, si)
		}
	}
	for classIdx := range trace.Classes() {
		file("etrace-gen", classIdx)
		for si := range etraceSchedulers {
			for mode := 0; mode < modes; mode++ {
				machine("etrace", classIdx, si, mode)
			}
		}
	}
	for si, scen := range efleetScenarios {
		kernel := derive(cfg.Seed, "efleet", si)
		faultSeeds(kernel)
		derive(kernel, "efleet-file", 0)
		if scen == "degraded" {
			derive(kernel, "efleet-inj")
		}
		file("efleet-sched", si)
	}
}

// TestParallelMatchesSerial asserts requirement (a): every registry entry
// gives identical artifacts — text and figure — with one worker and with
// four. An entry that runs no grid passes trivially.
func TestParallelMatchesSerial(t *testing.T) {
	// -short skips the grids that run the most streams: etrace and efleet,
	// as the per-experiment worker tests this one replaced did, and escale,
	// whose 10,000-stream points take most of this test's time.
	heavy := map[string]bool{"etrace": true, "efleet": true, "escale": true}
	for _, e := range registry() {
		name := strings.Join(e.IDs, "+")
		t.Run(name, func(t *testing.T) {
			if testing.Short() && heavy[name] {
				t.Skip("short mode: skips the grids with the most streams")
			}
			t.Parallel()
			var arts [2][]Artifact
			for i, workers := range []int{1, 4} {
				cfg := microConfig()
				cfg.Workers = workers
				var err error
				if arts[i], err = e.Run(cfg, nil, 0); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(arts[0], arts[1]) {
				t.Errorf("workers=1 and workers=4 disagree:\n--- serial ---\n%v\n--- parallel ---\n%v", arts[0], arts[1])
			}
		})
	}
}
