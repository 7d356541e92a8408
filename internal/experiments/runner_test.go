package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"sleds/internal/vfs"
)

// microConfig is the smallest grid that still exercises a real sweep:
// four sizes straddling the cache, two measured runs. Used by the
// parallel-vs-serial equality tests, which run every sweep twice.
func microConfig() Config {
	cfg := tinyConfig()
	cfg.Sizes = cfg.Sizes[:4]
	cfg.Runs = 2
	cfg.CDFRuns = 4
	return cfg
}

func TestRunnerIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out, err := RunGrid(Config{Workers: workers}, 9, func(_ Config, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunnerEmptyGrid(t *testing.T) {
	called := false
	if err := (Runner{Workers: 4}).Run(0, func(int, *vfs.HostMem) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("point called on an empty grid")
	}
}

func TestRunnerLowestIndexedErrorWins(t *testing.T) {
	boom3 := errors.New("boom3")
	err := Runner{Workers: 4}.Run(8, func(i int, _ *vfs.HostMem) error {
		if i >= 3 {
			return fmt.Errorf("boom%d: %w", i, boom3)
		}
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "boom3") {
		t.Fatalf("err = %v, want the lowest-indexed failure boom3", err)
	}
}

// TestRunnerPanicSurfaces asserts requirement (c): a panicking point
// becomes an error for that point instead of crashing the process or
// hanging its worker's siblings; the healthy points still run.
func TestRunnerPanicSurfaces(t *testing.T) {
	var ran atomic.Int64
	err := Runner{Workers: 4}.Run(8, func(i int, _ *vfs.HostMem) error {
		if i == 2 {
			panic("kaboom")
		}
		ran.Add(1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "point 2 panicked: kaboom") {
		t.Fatalf("err = %v, want the panic surfaced as point 2's error", err)
	}
	if got := ran.Load(); got != 7 {
		t.Fatalf("%d healthy points ran, want 7", got)
	}
}

func TestRunnerPoolSizeClamps(t *testing.T) {
	if got := (Runner{Workers: 64}).poolSize(3); got != 3 {
		t.Fatalf("poolSize(3) with 64 workers = %d, want 3", got)
	}
	if got := (Runner{Workers: -1}).poolSize(1000); got < 1 {
		t.Fatalf("default poolSize = %d, want >= 1", got)
	}
	if got := (Runner{Workers: 2}).poolSize(1000); got != 2 {
		t.Fatalf("poolSize = %d, want the configured 2", got)
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

// TestPointSeedCollisionFree asserts requirement (b): across the full
// paper grid — every experiment id, all 16 size indices, both modes, plus
// the mode-independent file seeds — no two points derive the same seed.
func TestPointSeedCollisionFree(t *testing.T) {
	cfg := PaperConfig()
	exps := []string{
		"wc-nfs", "wc-cdrom", "wc-ext2",
		"grep-all-cdrom", "grepq-ext2", "grepq-cdf-nfs",
		"fimhisto", "fimgbin-x4", "fimgbin-x16",
		"eaccuracy-ext2", "eaccuracy-cdrom", "eaccuracy-nfs",
		"ehints", "etreegrep", "ehsm", "eremote", "efind", "egmc",
	}
	seen := map[int64]string{}
	check := func(seed int64, what string) {
		if prev, dup := seen[seed]; dup {
			t.Fatalf("seed collision: %s and %s both derive %#x", prev, what, uint64(seed))
		}
		seen[seed] = what
	}
	check(cfg.Seed, "base")
	for _, exp := range exps {
		for sizeIdx := range cfg.Sizes {
			check(int64(fileSeed(cfg, exp, sizeIdx)), fmt.Sprintf("%s/file/%d", exp, sizeIdx))
			for mode := 0; mode < 2; mode++ {
				check(cfg.forPoint(exp, sizeIdx, mode).Seed, fmt.Sprintf("%s/%d/%d", exp, sizeIdx, mode))
			}
		}
	}
	if len(seen) < len(exps)*len(cfg.Sizes)*3 {
		t.Fatalf("only %d distinct seeds recorded", len(seen))
	}
}

// TestParallelMatchesSerial asserts requirement (a): a representative
// sample of sweeps — one per refactored experiment family — renders
// byte-identically with one worker and with many.
func TestParallelMatchesSerial(t *testing.T) {
	sweeps := []struct {
		name string
		fn   func(cfg Config) (string, error)
	}{
		{"wcSweep", func(cfg Config) (string, error) {
			f7, f8, err := Fig7And8(cfg)
			return f7.Render() + f8.Render(), err
		}},
		{"fig10", func(cfg Config) (string, error) {
			f, err := Fig10(cfg)
			return f.Render(), err
		}},
		{"fig11+12", func(cfg Config) (string, error) {
			f11, f12, err := Fig11And12(cfg)
			return f11.Render() + f12.Render(), err
		}},
		{"fig13", func(cfg Config) (string, error) {
			f, err := Fig13(cfg)
			return f.Render(), err
		}},
		{"fimSweep", func(cfg Config) (string, error) {
			f, err := Fig14(cfg)
			return f.Render(), err
		}},
		{"eaccuracy", func(cfg Config) (string, error) {
			f, err := EAccuracy(cfg)
			return f.Render(), err
		}},
		{"ehsm", func(cfg Config) (string, error) {
			r, err := EHSM(cfg)
			return fmt.Sprintf("%v %v", r.WithoutSeconds, r.WithSeconds), err
		}},
		{"ablation-readahead", func(cfg Config) (string, error) {
			f, err := AblationReadahead(cfg)
			return f.Render(), err
		}},
	}
	for _, sw := range sweeps {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			serialCfg := microConfig()
			serialCfg.Workers = 1
			serial, err := sw.fn(serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			parCfg := microConfig()
			parCfg.Workers = 4
			parallel, err := sw.fn(parCfg)
			if err != nil {
				t.Fatal(err)
			}
			if serial != parallel {
				t.Errorf("workers=1 and workers=4 disagree:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}
