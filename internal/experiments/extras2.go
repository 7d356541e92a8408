package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"sleds/internal/apps/appenv"
	"sleds/internal/apps/grepapp"
	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/lmbench"
	"sleds/internal/remote"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// hintDepth is how many upcoming chunks EHints' hinting readers disclose
// ahead of their current position: a conventional prefetch pipeline depth.
const hintDepth = 8

// EHints compares the two information flows of the paper's Figure 1 on
// the canonical workload — a second linear-equivalent pass over a warm
// file twice the cache size:
//
//   - plain:        demand-paged linear read
//   - hints:        linear read with TIP-style prefetch disclosure
//     (overlaps I/O with CPU, cannot exploit the cache
//     state a previous run left behind)
//   - sleds:        pick-library reordering (exploits cache state, no
//     overlap)
//   - sleds+hints:  reordering plus disclosure of the upcoming picks
//
// The workload "computes" at a fixed rate per byte, so both overlap and
// reordering have something to win.
func EHints(cfg Config) (Figure, error) {
	size := 2 * cfg.CacheBytes()
	const cpuRate = 20 * float64(1<<20) // bytes/sec of modelled compute

	type strategy struct {
		name     string
		useSLEDs bool
		useHints bool
	}
	strategies := []strategy{
		{"plain", false, false},
		{"hints", false, true},
		{"sleds", true, false},
		{"sleds+hints", true, true},
	}

	type chunk struct{ off, n int64 }
	pts, err := RunGrid(cfg, []int{len(strategies)}, func(cfg Config, at []int) (Point, error) {
		i := at[0]
		st := strategies[i]
		m, f, err := warmTextFile(cfg.forPoint("ehints", i), fileSeed(cfg, "ehints", 0), size)
		if err != nil {
			return Point{}, err
		}
		defer f.Close()
		m.K.ResetDeviceState()
		m.K.ResetRunStats()

		buf := make([]byte, cfg.BufSize)
		sec, err := elapsedSeconds(m.K, func() error {
			// The schedule is collected up front so hints can run ahead of
			// reads: pick order with SLEDs, file order without.
			var plan []chunk
			if st.useSLEDs {
				picker, err := sledlib.PickInit(m.K, m.Table, f, sledlib.Options{BufSize: cfg.BufSize})
				if err != nil {
					return err
				}
				defer picker.Finish()
				if err := scanPicks(picker, func(_ int, off, n int64) error {
					plan = append(plan, chunk{off, n})
					return nil
				}); err != nil {
					return err
				}
			} else {
				for off := int64(0); off < size; off += cfg.BufSize {
					plan = append(plan, chunk{off, min(cfg.BufSize, size-off)})
				}
			}
			for j, c := range plan {
				switch {
				case !st.useHints:
				case st.useSLEDs: // disclose the upcoming picks
					for d := 1; d <= hintDepth && j+d < len(plan); d++ {
						f.WillNeed(plan[j+d].off, plan[j+d].n)
					}
				default: // disclose the next stretch of the linear scan
					f.WillNeed(c.off+cfg.BufSize, int64(hintDepth)*cfg.BufSize)
				}
				if _, err := f.ReadAt(buf[:c.n], c.off); eofOK(err) != nil {
					return err
				}
				m.K.ChargeCPUBytes(c.n, cpuRate)
			}
			return nil
		})
		return Point{X: float64(i), Mean: sec}, err
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "ehints",
		Title:  "hints vs SLEDs vs both: second pass over a warm 2x-cache file with per-byte compute",
		XLabel: "strategy", YLabel: "seconds",
		Series: []Series{{Name: "elapsed", Points: pts}},
		Notes:  "x: 0=plain 1=hints(TIP) 2=sleds 3=sleds+hints — the flows are complementary (Figure 1)",
	}, nil
}

// treeGrepStrategy enumerates E-TREEGREP's access strategies.
type treeGrepStrategy int

const (
	treeNameOrder treeGrepStrategy = iota // find -exec grep, alphabetical
	treeFileSets                          // Steere: whole files, cached first
	treeFullSLEDs                         // file sets + intra-file reordering
)

// ETreeGrep is the paper's motivating anecdote measured: "Programmers may
// do find -exec grep while looking for a particular routine... the entry
// may be cached but earlier files may already have been flushed."
// A source tree is grepped three ways after an earlier partial scan
// warmed some of it: alphabetical order (stock find), Steere's file-set
// order (inter-file only), and full SLEDs (inter- plus intra-file).
func ETreeGrep(cfg Config) (Figure, error) {
	// Eight files of half the cache each; a prior scan touched the last
	// three fully and half of the fourth-from-last.
	fileSize := cfg.CacheBytes() / 2
	const numFiles = 8

	cells, err := RunGrid(cfg, []int{3}, func(cfg Config, at []int) ([]Point, error) {
		i := at[0]
		strategy := treeGrepStrategy(i)
		m, err := BootMachine(cfg.forPoint("etreegrep", i), ProfileUnix)
		if err != nil {
			return nil, err
		}
		if err := m.K.MkdirAll("/data/src"); err != nil {
			return nil, err
		}
		var paths []string
		for fi := 0; fi < numFiles; fi++ {
			p := fmt.Sprintf("/data/src/file%02d.c", fi)
			// File contents are strategy-independent: every strategy greps
			// the identical tree.
			c := workload.NewText(fileSeed(cfg, "etreegrep", fi), fileSize, cfg.PageSize)
			workload.PlantMatch(c, fileSize/2, needleBase)
			if _, err := m.K.Create(p, m.Disk, c); err != nil {
				return nil, err
			}
			paths = append(paths, p)
		}
		// The earlier interrupted scan: last three files read fully, front
		// to back, the one before half-read (its tail cached).
		for _, p := range paths[numFiles-3:] {
			f, err := m.K.Open(p)
			if err != nil {
				return nil, err
			}
			_, err = io.Copy(io.Discard, f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("warming %s: %w", p, err)
			}
		}
		if err := warmRange(m.K, paths[numFiles-4], fileSize/2, fileSize/2, (*vfs.File).PageIn); err != nil {
			return nil, err
		}
		m.K.ResetDeviceState()
		m.K.ResetRunStats()

		sec, err := elapsedSeconds(m.K, func() error {
			order := paths
			if strategy != treeNameOrder {
				var err error
				if order, err = fileSetOrder(m, paths, core.PlanBest); err != nil {
					return err
				}
			}
			env := m.Env(strategy == treeFullSLEDs, cfg.BufSize)
			total := 0
			for _, p := range order {
				matches, err := grepapp.Run(env, p, needleBase, grepapp.Options{})
				if err != nil {
					return err
				}
				total += len(matches)
			}
			if total != numFiles {
				return fmt.Errorf("ETreeGrep: found %d matches, want %d", total, numFiles)
			}
			return nil
		})
		return []Point{{X: float64(i), Mean: sec}, {X: float64(i), Mean: float64(m.K.RunStats().Faults)}}, err
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "etreegrep",
		Title:  "grep over a partially cached source tree, by access strategy",
		XLabel: "strategy", YLabel: "seconds / faults",
		Series: columns(slices.Concat(cells...), []string{"elapsed seconds", "hard faults"}),
		Notes:  "x: 0=name order (stock find -exec grep) 1=file sets (Steere) 2=full SLEDs (inter+intra file)",
	}, nil
}

// ERemote measures the client/server extension (paper §2: "We propose
// that SLEDs be the vocabulary of communication between clients and
// servers"): grep -q over a remote file whose tail sits in the *server's*
// buffer cache while the client cache is cold. A flat NFS mount cannot
// see the server's state; the SLEDs mount reports it per page, and the
// reordering client finds its match without touching the server's disk.
func ERemote(cfg Config) (EHSMResult, error) {
	size := cfg.Sizes[len(cfg.Sizes)/2-1]
	return grepFirstSpeedup(cfg, "eremote", "eremote: grep -q on a remote file, server-cached tail",
		"grep -q on a remote file with a server-cached tail",
		"x=0 without SLEDs, x=1 with; speedup %.2gx — the client exploits the server's cache state",
		func(cfg Config, mode int) (*appenv.Env, string, error) {
			k, mem := newKernel(cfg.forPoint("eremote", 0, mode), device.Table2MemConfig(0)) // size index 0: one size
			rcfg := remote.DefaultConfig()
			rcfg.ServerCachePages = int(size / int64(cfg.PageSize)) // server holds the whole file
			mount, err := remote.NewMount(k, rcfg)
			if err != nil {
				return nil, "", err
			}
			if err := k.MkdirAll("/net"); err != nil {
				return nil, "", err
			}
			tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
			if err != nil {
				return nil, "", err
			}
			c := workload.NewText(fileSeed(cfg, "eremote", 0), size, cfg.PageSize)
			workload.PlantMatch(c, size-size/4, needleBase)
			if _, err := k.Create("/net/testfile", mount.Device(), c); err != nil {
				return nil, "", err
			}
			// A previous consumer read the tail half: it is in the server's
			// cache. The client cache is then dropped.
			if err := warmRange(k, "/net/testfile", size/2, size/2, (*vfs.File).PageIn); err != nil {
				return nil, "", err
			}
			k.DropCaches()
			return &appenv.Env{K: k, Table: tab, UseSLEDs: mode == 1, BufSize: cfg.BufSize}, "/net/testfile", nil
		})
}

// EAccuracy measures the predictability claim of §5 ("The benefits of
// SLEDs include both useful predictability in I/O execution times..."):
// for each device, the sleds_total_delivery_time estimate of a cold file
// versus the measured time of the linear read, as a signed percentage
// error.
func EAccuracy(cfg Config) (Figure, error) {
	fss := []string{"ext2", "cdrom", "nfs"}
	points, err := RunGrid(cfg, []int{len(cfg.Sizes), len(fss)}, func(cfg Config, at []int) (Point, error) {
		sizeIdx, fs := at[0], fss[at[1]]
		size := cfg.Sizes[sizeIdx]
		exp := "eaccuracy-" + fs
		m, err := BootMachine(cfg.forPoint(exp, sizeIdx), ProfileUnix)
		if err != nil {
			return Point{}, err
		}
		// Place the file mid-device: the table entry models average
		// positioning and a representative zone, so a file at offset
		// zero (no seek, fastest zone) would bias the comparison.
		dev, err := m.DeviceByName(fs)
		if err != nil {
			return Point{}, err
		}
		devSize := m.K.Devices.Get(dev).Info().Size
		if _, err := m.K.ReserveExtent(dev, devSize*2/5); err != nil {
			return Point{}, err
		}
		if _, err := textFileOn(m, fs, fileSeed(cfg, exp, sizeIdx), size, cfg.PageSize); err != nil {
			return Point{}, err
		}
		n, err := m.K.Stat("/data/testfile")
		if err != nil {
			return Point{}, err
		}
		est, err := sledlib.TotalDeliveryTime(m.K, m.Table, n, core.PlanLinear)
		if err != nil {
			return Point{}, err
		}
		actual, err := streamColdRead(m, size)
		if err != nil {
			return Point{}, err
		}
		errPct := 100 * (est - actual) / actual
		if math.IsNaN(errPct) || math.IsInf(errPct, 0) {
			return Point{}, fmt.Errorf("EAccuracy: degenerate error for %s at %d", fs, size)
		}
		return Point{X: mbOf(size), Mean: errPct}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "eaccuracy",
		Title:  "delivery-time estimate vs measured cold linear read, signed error",
		XLabel: "size MB", YLabel: "percent error (est-actual)/actual",
		Series: columns(points, fss),
		Notes:  "single-entry-per-device table (paper §4.1); zoned disks make the ext2 estimate size-dependent",
	}, nil
}
