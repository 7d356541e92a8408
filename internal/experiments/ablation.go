package experiments

import (
	"fmt"
	"slices"

	"sleds/internal/apps/wcapp"
	"sleds/internal/cache"
	"sleds/internal/core"
	"sleds/internal/faults"
	"sleds/internal/lmbench"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
)

// The ablation experiments vary the design choices DESIGN.md calls out
// and measure the effect on the headline SLEDs gain. Each uses the
// wc-on-warm-cache scenario at twice the cache size — the middle of the
// regime where SLEDs help.

// ablationSize returns the canonical ablation file size: 2x cache.
func ablationSize(cfg Config) int64 { return 2 * cfg.CacheBytes() }

// wcWarmSpeedups measures the wc speedup (without/with SLEDs) on a warm
// 2x-cache file under each setting: one (setting, mode) grid, where apply
// puts a setting on a point's cfg, reduced to one point per setting at
// x = the setting. Unlike the figure sweeps every point deliberately
// shares cfg.Seed unchanged, so each paired comparison sees identical
// jitter streams.
func wcWarmSpeedups[S ~int](cfg Config, settings []S, apply func(cfg *Config, s S)) ([]Point, error) {
	size := ablationSize(cfg)
	sec, err := RunGrid(cfg, []int{len(settings), len(modeNames)}, func(cfg Config, at []int) (float64, error) {
		apply(&cfg, settings[at[0]])
		m, err := BootMachine(cfg, ProfileUnix)
		if err != nil {
			return 0, err
		}
		if _, err := textFileOn(m, "ext2", uint64(cfg.Seed), size, cfg.PageSize); err != nil {
			return 0, err
		}
		env := m.Env(at[1] == 1, cfg.BufSize)
		elapsed, _, err := measured(cfg, m, func(int) error {
			_, err := wcapp.Run(env, "/data/testfile")
			return err
		})
		if err != nil {
			return 0, err
		}
		return elapsed.Mean(), nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(settings))
	for i, s := range settings {
		pts[i] = Point{X: float64(s), Mean: sec[2*i] / sec[2*i+1]}
	}
	return pts, nil
}

// AblationPolicy measures the SLEDs gain under each replacement policy.
// The Figure 3 pathology is specific to LRU-like policies; CLOCK
// approximates it, FIFO shares it for pure linear scans.
func AblationPolicy(cfg Config) (Figure, error) {
	policies := []cache.Policy{cache.LRU, cache.Clock, cache.FIFO}
	pts, err := wcWarmSpeedups(cfg, policies, func(c *Config, p cache.Policy) { c.Policy = p })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ablation-policy",
		Title:  fmt.Sprintf("wc warm-cache speedup at 2x cache size, by replacement policy (%v)", policies),
		XLabel: "policy", YLabel: "speedup",
		Series: []Series{{Name: "without/with SLEDs", Points: pts}},
		Notes:  "x: 0=LRU 1=CLOCK 2=FIFO",
	}, nil
}

// pickOrderScan reads a whole warm file through a picker with the given
// order and reports elapsed seconds and faults.
func pickOrderScan(cfg Config, order sledlib.Order) (sec float64, faults int64, err error) {
	m, f, err := warmTextFile(cfg, uint64(cfg.Seed), ablationSize(cfg))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	picker, err := sledlib.PickInit(m.K, m.Table, f, sledlib.Options{BufSize: cfg.BufSize, Order: order})
	if err != nil {
		return 0, 0, err
	}
	defer picker.Finish()
	m.K.ResetDeviceState()
	m.K.ResetRunStats()
	buf := make([]byte, cfg.BufSize)
	sec, err = elapsedSeconds(m.K, func() error {
		return scanPicks(picker, func(_ int, off, n int64) error {
			_, err := f.ReadAt(buf[:n], off)
			return eofOK(err)
		})
	})
	return sec, m.K.RunStats().Faults, err
}

// AblationPickOrder compares the paper's lowest-latency-first schedule
// against file order and the pessimal highest-latency-first order.
func AblationPickOrder(cfg Config) (Figure, error) {
	orders := []sledlib.Order{sledlib.OrderLatency, sledlib.OrderLinear, sledlib.OrderReverseLatency}
	cells, err := RunGrid(cfg, []int{len(orders)}, func(cfg Config, at []int) ([]Point, error) {
		x := float64(orders[at[0]])
		sec, n, err := pickOrderScan(cfg, orders[at[0]])
		return []Point{{X: x, Mean: sec}, {X: x, Mean: float64(n)}}, err
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ablation-pickorder",
		Title:  "warm full-file scan at 2x cache size, by pick order",
		XLabel: "order", YLabel: "seconds / faults",
		Series: columns(slices.Concat(cells...), []string{"elapsed seconds", "hard faults"}),
		Notes:  "x: 0=latency-first (paper) 1=file order 2=highest-latency-first",
	}, nil
}

// AblationRefresh measures the Refresh extension (§4.2's "refreshing the
// state of those SLEDs occasionally would allow the library to take
// advantage of any changes in state"). The scenario: a 3x-cache file whose
// tail third is cached; after the picker consumes the cheap tail, a
// cooperating process reads the MIDDLE third into cache. The stale
// schedule visits the head third first and its device reads evict the
// freshly cached middle before the scan arrives; a refreshed schedule
// reads the middle while it is still resident.
func AblationRefresh(cfg Config) (Figure, error) {
	return twoModeFigure(cfg, "ablation-refresh",
		"SLEDs scan with a mid-run cache change: stale vs refreshed schedule",
		"x: 0=stale schedule (paper implementation), 1=Refresh() extension", func(cfg Config, mode int) (float64, error) {
			third := cfg.CacheBytes()
			// Warm pass: the tail third survives in cache.
			m, f, err := warmTextFile(cfg, uint64(cfg.Seed), 3*third)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			picker, err := sledlib.PickInit(m.K, m.Table, f, sledlib.Options{BufSize: cfg.BufSize})
			if err != nil {
				return 0, err
			}
			defer picker.Finish()
			m.K.ResetDeviceState()
			m.K.ResetRunStats()
			start := m.K.Clock.Now()
			buf := make([]byte, cfg.BufSize)
			cheapChunks := int(third / cfg.BufSize)
			err = scanPicks(picker, func(i int, off, n int64) error {
				if _, err := f.ReadAt(buf[:n], off); eofOK(err) != nil {
					return err
				}
				if i+1 != cheapChunks {
					return nil
				}
				// The cheap tail is consumed: before the next pick, a
				// cooperating process pulls the middle third into the
				// cache; its own I/O time is excluded from the window.
				before := m.K.Clock.Now()
				if err := warmRange(m.K, "/data/testfile", third, third, (*vfs.File).PageIn); err != nil {
					return err
				}
				start += m.K.Clock.Now() - before
				if mode == 1 {
					return picker.Refresh()
				}
				return nil
			})
			return seconds(m.K.Clock.Now() - start), err
		})
}

// AblationMmap measures the paper's §5.2 remark that the SLEDs CPU
// penalty on small cached files comes partly from read()'s user-space
// copy, and that "an mmap-friendly SLEDs library is feasible, which
// should reduce the CPU penalty": a fully cached file is scanned in pick
// order through read() and through the mapped (no-copy) path.
func AblationMmap(cfg Config) (Figure, error) {
	return twoModeFigure(cfg, "ablation-mmap",
		"pick-order scan of a fully cached file: read() vs mmap path",
		"x: 0=read() with user copy, 1=mapped access — the copy is the CPU penalty of §5.2", func(cfg Config, mode int) (float64, error) {
			// Half the cache: comfortably resident after the warm pass.
			m, f, err := warmTextFile(cfg, uint64(cfg.Seed), cfg.CacheBytes()/2)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			picker, err := sledlib.PickInit(m.K, m.Table, f, sledlib.Options{BufSize: cfg.BufSize})
			if err != nil {
				return 0, err
			}
			defer picker.Finish()
			read := f.ReadAt
			if mode == 1 {
				read = f.ReadAtMapped
			}
			buf := make([]byte, cfg.BufSize)
			return elapsedSeconds(m.K, func() error {
				return scanPicks(picker, func(_ int, off, n int64) error {
					_, err := read(buf[:n], off)
					return eofOK(err)
				})
			})
		})
}

// AblationZones measures the single-entry-per-device limitation of §4.1
// against the zoned-table extension: a file placed on the disk's inner
// (slow) cylinders is estimated with both tables and compared to the
// measured cold read.
func AblationZones(cfg Config) (Figure, error) {
	m, err := BootMachine(cfg, ProfileUnix)
	if err != nil {
		return Figure{}, err
	}
	disk := m.K.Devices.Get(m.Disk)
	if inj, ok := disk.(*faults.Injector); ok {
		// Zone probes measure the healthy device (injectFaults);
		// the cold read below still goes through the injector.
		disk = inj.Underlying()
	}
	// Push the test file deep into the device by reserving (not
	// touching) most of the space before it: reservation is free.
	filler := disk.Info().Size * 8 / 10
	if _, err := m.K.ReserveExtent(m.Disk, filler); err != nil {
		return Figure{}, err
	}
	size := cfg.Sizes[len(cfg.Sizes)/2]
	if _, err := textFileOn(m, "ext2", uint64(cfg.Seed), size, cfg.PageSize); err != nil {
		return Figure{}, err
	}
	n, err := m.K.Stat("/data/testfile")
	if err != nil {
		return Figure{}, err
	}

	singleEst, err := sledlib.TotalDeliveryTime(m.K, m.Table, n, core.PlanLinear)
	if err != nil {
		return Figure{}, err
	}
	zones, err := lmbench.MeasureDeviceZones(m.K.Clock, disk)
	if err != nil {
		return Figure{}, err
	}
	if err := m.Table.SetDeviceZones(m.Disk, zones); err != nil {
		return Figure{}, err
	}
	zonedEst, err := sledlib.TotalDeliveryTime(m.K, m.Table, n, core.PlanLinear)
	if err != nil {
		return Figure{}, err
	}

	actual, err := streamColdRead(m, size)
	if err != nil {
		return Figure{}, err
	}
	errPct := func(est float64) float64 { return 100 * (est - actual) / actual }
	return Figure{
		ID:     "ablation-zones",
		Title:  "delivery estimate error for an inner-cylinder file: single-entry vs zoned table",
		XLabel: "table", YLabel: "percent error",
		Series: []Series{{Name: "(est-actual)/actual %", Points: []Point{
			{X: 0, Mean: errPct(singleEst)},
			{X: 1, Mean: errPct(zonedEst)},
		}}},
		Notes: "x: 0=single entry (paper §4.1), 1=zoned extension ([Van97] future work)",
	}, nil
}

// AblationReadahead measures kernel readahead's interaction with the two
// wc modes: it narrows the SLEDs gap by cutting per-request latencies for
// the linear reader.
func AblationReadahead(cfg Config) (Figure, error) {
	pts, err := wcWarmSpeedups(cfg, []int{0, 8}, func(c *Config, n int) { c.ReadaheadPages = n })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ablation-readahead",
		Title:  "wc warm-cache speedup at 2x cache size, by kernel readahead",
		XLabel: "readahead pages", YLabel: "speedup",
		Series: []Series{{Name: "without/with SLEDs", Points: pts}},
	}, nil
}
