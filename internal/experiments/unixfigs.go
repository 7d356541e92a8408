package experiments

import (
	"fmt"

	"sleds/internal/apps/grepapp"
	"sleds/internal/apps/wcapp"
	"sleds/internal/simclock"
	"sleds/internal/stats"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// needleBase is the grep pattern stem; the text generator's lexicon never
// produces it, so planted matches are the only matches.
const needleBase = "xyzzy"

// textFileOn creates the test file for one experiment point.
func textFileOn(m *Machine, fs string, seed uint64, size int64, pageSize int) (*workload.Content, error) {
	dev, err := deviceByName(m, fs)
	if err != nil {
		return nil, err
	}
	c := workload.NewText(seed, size, pageSize)
	if _, err := m.K.Create("/data/testfile", dev, c); err != nil {
		return nil, err
	}
	return c, nil
}

// wcSweep runs wc across cfg.Sizes on the named file system in both modes
// and returns the [without, with] series of elapsed seconds or, with
// countFaults, of hard page faults.
func wcSweep(cfg Config, fs string, countFaults bool) ([]Series, error) {
	exp := "wc-" + fs
	points, err := RunGrid(cfg, []int{len(cfg.Sizes), len(modeNames)}, func(cfg Config, at []int) (Point, error) {
		sizeIdx, mode := at[0], at[1]
		size := cfg.Sizes[sizeIdx]
		pcfg := cfg.forPoint(exp, sizeIdx, mode)
		m, err := BootMachine(pcfg, ProfileUnix)
		if err != nil {
			return Point{}, err
		}
		if _, err := textFileOn(m, fs, fileSeed(cfg, exp, sizeIdx), size, cfg.PageSize); err != nil {
			return Point{}, err
		}
		env := m.Env(mode == 1, cfg.BufSize)
		sample, faults, err := measured(pcfg, m, func(int) error {
			_, err := wcapp.Run(env, "/data/testfile")
			return err
		})
		if err != nil {
			return Point{}, err
		}
		if countFaults {
			sample = faults
		}
		return pointFrom(mbOf(size), sample.Summarize()), nil
	})
	if err != nil {
		return nil, err
	}
	return columns(points, modeNames), nil
}

// Fig7And8 regenerates Figure 7 (wc execution time over NFS, with and
// without SLEDs, warm cache) and Figure 8 (the speedup ratio of the two
// curves).
func Fig7And8(cfg Config) (Figure, Figure, error) {
	s, err := wcSweep(cfg, "nfs", false)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	f7 := Figure{
		ID: "fig7", Title: "wc times over NFS, with and without SLEDs, warm cache",
		XLabel: "size MB", YLabel: "seconds",
		Series: []Series{s[1], s[0]},
	}
	f8 := Figure{
		ID: "fig8", Title: "wc time ratio (speedup) over NFS",
		XLabel: "size MB", YLabel: "improvement ratio",
		Series: []Series{ratioSeries("without/with", s[0], s[1])},
	}
	return f7, f8, nil
}

// Fig9 regenerates Figure 9: wc page faults on CD-ROM, with and without
// SLEDs, warm cache.
func Fig9(cfg Config) (Figure, error) {
	s, err := wcSweep(cfg, "cdrom", true)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: "fig9", Title: "wc page faults on CD-ROM, with and without SLEDs, warm cache",
		XLabel: "size MB", YLabel: "page faults",
		Series: []Series{s[1], s[0]},
	}, nil
}

// Fig10 regenerates Figure 10: grep for all matches on CD-ROM, with and
// without SLEDs. Matches are sparse (one planted line per ~MB: "kilobytes
// out of megabytes"), so output buffering stays small.
func Fig10(cfg Config) (Figure, error) {
	const exp = "grep-all-cdrom"
	points, err := RunGrid(cfg, []int{len(cfg.Sizes), len(modeNames)}, func(cfg Config, at []int) (Point, error) {
		sizeIdx, mode := at[0], at[1]
		size := cfg.Sizes[sizeIdx]
		m, err := BootMachine(cfg.forPoint(exp, sizeIdx, mode), ProfileUnix)
		if err != nil {
			return Point{}, err
		}
		c, err := textFileOn(m, "cdrom", fileSeed(cfg, exp, sizeIdx), size, cfg.PageSize)
		if err != nil {
			return Point{}, err
		}
		// One planted match per cache-quarter of file, spread evenly; the
		// offsets derive from the mode-independent file seed so both modes
		// search the same planted positions.
		step := cfg.CacheBytes() / 4
		rng := fileSeed(cfg, exp, sizeIdx) | 1
		for off := step / 2; off < size; off += step {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			workload.PlantMatch(c, off+int64(rng%4096), needleBase)
		}
		env := m.Env(mode == 1, cfg.BufSize)
		elapsed, _, err := measured(cfg, m, func(int) error {
			_, err := grepapp.Run(env, "/data/testfile", needleBase, grepapp.Options{})
			return err
		})
		if err != nil {
			return Point{}, err
		}
		return pointFrom(mbOf(size), elapsed.Summarize()), nil
	})
	if err != nil {
		return Figure{}, err
	}
	s := columns(points, modeNames)
	return Figure{
		ID: "fig10", Title: "grep for all matches on CD-ROM, with and without SLEDs, warm cache",
		XLabel: "size MB", YLabel: "seconds",
		Series: []Series{s[1], s[0]},
		Notes:  "small-file region shows the SLEDs CPU overhead; large files save the cache-fill time",
	}, nil
}

// grepFirstPoint measures grep -q on a size-byte file in one mode: each
// run searches for a distinct needle planted at a per-run pseudo-random
// offset, so the match position varies across runs exactly as in the
// paper ("a single match that was placed randomly in the test file").
// The machine is seeded by (exp, sizeIdx, mode), for point-local jitter.
// File content and needle positions derive from (cfg.Seed, size) only —
// mode-independent, so a with/without pair reads the same file and the
// same match positions.
func grepFirstPoint(cfg Config, exp, fs string, sizeIdx int, size int64, mode, runs int) (*stats.Sample, error) {
	m, err := BootMachine(cfg.forPoint(exp, sizeIdx, mode), ProfileUnix)
	if err != nil {
		return nil, err
	}
	c, err := textFileOn(m, fs, uint64(cfg.Seed)+uint64(size), size, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	// Plant one distinct needle per run (plus one for the warm-up).
	rng := uint64(cfg.Seed)*6364136223846793005 + uint64(size)
	needles := make([]string, runs+1)
	for i := range needles {
		rng = rng*6364136223846793005 + 1442695040888963407
		pos := int64(rng>>11) % size
		needles[i] = fmt.Sprintf("%s%03d", needleBase, i)
		workload.PlantMatch(c, pos, needles[i])
	}

	env := m.Env(mode == 1, cfg.BufSize)
	runCfg := cfg
	runCfg.Runs = runs
	elapsed, _, err := measured(runCfg, m, func(run int) error {
		needle := needles[run+1]
		got, err := grepapp.Run(env, "/data/testfile", needle, grepapp.Options{FirstOnly: true})
		if err != nil {
			return err
		}
		if len(got) != 1 {
			return fmt.Errorf("grep -q found %d matches for %q", len(got), needle)
		}
		return nil
	})
	return elapsed, err
}

// Fig11And12 regenerates Figure 11 (grep for one match on ext2, with and
// without SLEDs) and Figure 12 (the speedup ratio).
func Fig11And12(cfg Config) (Figure, Figure, error) {
	points, err := RunGrid(cfg, []int{len(cfg.Sizes), len(modeNames)}, func(cfg Config, at []int) (Point, error) {
		size := cfg.Sizes[at[0]]
		sample, err := grepFirstPoint(cfg, "grepq-ext2", "ext2", at[0], size, at[1], cfg.Runs)
		if err != nil {
			return Point{}, err
		}
		return pointFrom(mbOf(size), sample.Summarize()), nil
	})
	if err != nil {
		return Figure{}, Figure{}, err
	}
	s := columns(points, modeNames)
	f11 := Figure{
		ID: "fig11", Title: "grep for one match on ext2, with and without SLEDs, warm cache",
		XLabel: "size MB", YLabel: "seconds",
		Series: []Series{s[1], s[0]},
		Notes:  "large error bars without SLEDs reflect cache-position luck, as in the paper",
	}
	f12 := Figure{
		ID: "fig12", Title: "grep one-match speedup on ext2",
		XLabel: "size MB", YLabel: "improvement ratio",
		Series: []Series{ratioSeries("without/with", s[0], s[1])},
	}
	return f11, f12, nil
}

// Fig13 regenerates Figure 13: the CDF of grep -q execution time over NFS
// for the mid-sweep file size (the paper's 64 MB point on the full-scale
// sweep).
func Fig13(cfg Config) (Figure, error) {
	if len(cfg.Sizes) < 2 {
		return Figure{}, fmt.Errorf("experiments: fig13 takes the middle of at least 2 sizes, got %d", len(cfg.Sizes))
	}
	size := cfg.Sizes[len(cfg.Sizes)/2-1]
	runs := cfg.CDFRuns
	if runs <= 0 {
		runs = cfg.Runs
	}
	series, err := RunGrid(cfg, []int{len(modeNames)}, func(cfg Config, at []int) (Series, error) {
		mode := at[0]
		// Seeded as size index 0: the grid has one size.
		s, err := grepFirstPoint(cfg, "grepq-cdf-nfs", "nfs", 0, size, mode, runs)
		if err != nil {
			return Series{}, err
		}
		cdf := stats.NewCDF(s.Values())
		// Rendered as the inverse CDF: x is the fraction of runs, the
		// value is the elapsed seconds at that quantile, so both modes
		// share the x axis (the paper's Figure 13 plots the transpose).
		var pts []Point
		for _, xy := range cdf.Points() {
			pts = append(pts, Point{X: xy[1], Mean: xy[0]})
		}
		return Series{Name: modeNames[mode], Points: pts}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig13",
		Title:  fmt.Sprintf("CDF of grep -q execution time, NFS, %.4g MB file, warm cache", mbOf(size)),
		XLabel: "fraction", YLabel: "seconds at quantile",
		Series: []Series{series[1], series[0]},
	}, nil
}

// seconds converts a virtual-time span to the figures' unit.
func seconds(d simclock.Duration) float64 { return float64(d) / float64(simclock.Second) }

// elapsedSeconds times fn on k's virtual clock.
func elapsedSeconds(k *vfs.Kernel, fn func() error) (float64, error) {
	start := k.Clock.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return seconds(k.Clock.Now() - start), nil
}
