package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"sleds/internal/apps/appenv"
	"sleds/internal/apps/grepapp"
	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/hints"
	"sleds/internal/lmbench"
	"sleds/internal/remote"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

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
	cfg.validate()
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

	pts, err := RunGrid(cfg, len(strategies), func(i int) (Point, error) {
		st := strategies[i]
		m, err := BootMachine(cfg.forPoint("ehints", i), ProfileUnix)
		if err != nil {
			return Point{}, err
		}
		if _, err := textFileOn(m, "ext2", fileSeed(cfg, "ehints", 0), size, cfg.PageSize); err != nil {
			return Point{}, err
		}
		f, err := m.K.Open("/data/testfile")
		if err != nil {
			return Point{}, err
		}
		io.Copy(io.Discard, f) // warm pass
		m.K.ResetDeviceState()
		m.K.ResetRunStats()

		adv := hints.New(m.K)
		start := m.K.Clock.Now()
		buf := make([]byte, cfg.BufSize)
		if st.useSLEDs {
			picker, err := sledlib.PickInit(m.K, m.Table, f, sledlib.Options{BufSize: cfg.BufSize})
			if err != nil {
				return Point{}, err
			}
			// Pre-collect the schedule so hints can run ahead of reads.
			type adv2 struct{ off, n int64 }
			var plan []adv2
			for {
				off, n, err := picker.NextRead()
				if errors.Is(err, sledlib.ErrFinished) {
					break
				}
				plan = append(plan, adv2{off, n})
			}
			picker.Finish()
			for j, c := range plan {
				if st.useHints {
					for d := 1; d <= hints.Depth && j+d < len(plan); d++ {
						adv.WillNeed(f, plan[j+d].off, plan[j+d].n)
					}
				}
				if _, err := f.ReadAt(buf[:c.n], c.off); err != nil && err != io.EOF {
					return Point{}, err
				}
				m.K.ChargeCPUBytes(c.n, cpuRate)
			}
		} else {
			for off := int64(0); off < size; off += cfg.BufSize {
				n := cfg.BufSize
				if off+n > size {
					n = size - off
				}
				if st.useHints {
					adv.WillNeed(f, off+cfg.BufSize, int64(hints.Depth)*cfg.BufSize)
				}
				if _, err := f.ReadAt(buf[:n], off); err != nil && err != io.EOF {
					return Point{}, err
				}
				m.K.ChargeCPUBytes(n, cpuRate)
			}
		}
		f.Close()
		sec := float64(m.K.Clock.Now()-start) / float64(simclock.Second)
		return Point{X: float64(i), Mean: sec}, nil
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
	cfg.validate()
	// Eight files of half the cache each; a prior scan touched the last
	// three fully and half of the fourth-from-last.
	fileSize := cfg.CacheBytes() / 2
	const numFiles = 8

	run := func(strategy treeGrepStrategy) (sec float64, faults int64, err error) {
		m, err := BootMachine(cfg.forPoint("etreegrep", int(strategy)), ProfileUnix)
		if err != nil {
			return 0, 0, err
		}
		if err := m.K.MkdirAll("/data/src"); err != nil {
			return 0, 0, err
		}
		var paths []string
		for i := 0; i < numFiles; i++ {
			p := fmt.Sprintf("/data/src/file%02d.c", i)
			// File contents are strategy-independent: every strategy greps
			// the identical tree.
			c := workload.NewText(fileSeed(cfg, "etreegrep", i), fileSize, cfg.PageSize)
			workload.PlantMatch(c, fileSize/2, needleBase)
			if _, err := m.K.Create(p, m.Disk, c); err != nil {
				return 0, 0, err
			}
			paths = append(paths, p)
		}
		// The earlier interrupted scan: last three files read fully, the
		// one before half-read (its tail cached).
		for i := numFiles - 3; i < numFiles; i++ {
			f, _ := m.K.Open(paths[i])
			io.Copy(io.Discard, f)
			f.Close()
		}
		f, _ := m.K.Open(paths[numFiles-4])
		buf := make([]byte, fileSize/2)
		f.ReadAt(buf, fileSize/2)
		f.Close()
		m.K.ResetDeviceState()
		m.K.ResetRunStats()
		start := m.K.Clock.Now()

		order := append([]string(nil), paths...)
		useSLEDs := false
		switch strategy {
		case treeNameOrder:
		case treeFileSets:
			order, _ = sledlib.FileSetOrder(m.K, m.Table, paths, core.PlanBest)
		case treeFullSLEDs:
			order, _ = sledlib.FileSetOrder(m.K, m.Table, paths, core.PlanBest)
			useSLEDs = true
		}
		env := m.Env(useSLEDs, cfg.BufSize)
		total := 0
		for _, p := range order {
			matches, err := grepapp.Run(env, p, needleBase, grepapp.Options{})
			if err != nil {
				return 0, 0, err
			}
			total += len(matches)
		}
		if total != numFiles {
			return 0, 0, fmt.Errorf("ETreeGrep: found %d matches, want %d", total, numFiles)
		}
		return float64(m.K.Clock.Now()-start) / float64(simclock.Second), m.K.RunStats().Faults, nil
	}

	type treePoint struct{ time, faults Point }
	points, err := RunGrid(cfg, 3, func(i int) (treePoint, error) {
		st := treeGrepStrategy(i)
		sec, faults, err := run(st)
		if err != nil {
			return treePoint{}, err
		}
		return treePoint{
			Point{X: float64(st), Mean: sec},
			Point{X: float64(st), Mean: float64(faults)},
		}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	var timePts, faultPts []Point
	for _, p := range points {
		timePts = append(timePts, p.time)
		faultPts = append(faultPts, p.faults)
	}
	return Figure{
		ID:     "etreegrep",
		Title:  "grep over a partially cached source tree, by access strategy",
		XLabel: "strategy", YLabel: "seconds / faults",
		Series: []Series{
			{Name: "elapsed seconds", Points: timePts},
			{Name: "hard faults", Points: faultPts},
		},
		Notes: "x: 0=name order (stock find -exec grep) 1=file sets (Steere) 2=full SLEDs (inter+intra file)",
	}, nil
}

// ERemote measures the client/server extension (paper §2: "We propose
// that SLEDs be the vocabulary of communication between clients and
// servers"): grep -q over a remote file whose tail sits in the *server's*
// buffer cache while the client cache is cold. A flat NFS mount cannot
// see the server's state; the SLEDs mount reports it per page, and the
// reordering client finds its match without touching the server's disk.
func ERemote(cfg Config) (EHSMResult, error) {
	cfg.validate()
	size := cfg.Sizes[len(cfg.Sizes)/2-1]

	run := func(mode int) (float64, error) {
		useSLEDs := mode == 1
		mem := device.NewMem(device.Table2MemConfig(0))
		k := vfs.NewKernel(vfs.Config{
			PageSize:   cfg.PageSize,
			CachePages: cfg.CachePages,
			MemDevice:  mem,
			JitterSeed: PointSeed(cfg.Seed, "eremote", 0, mode),
			JitterFrac: cfg.JitterFrac,
		})
		k.AttachDevice(mem)
		rcfg := remote.DefaultConfig()
		rcfg.ServerCachePages = int(size / int64(cfg.PageSize)) // server holds the whole file
		mount, err := remote.NewMount(k, rcfg)
		if err != nil {
			return 0, err
		}
		if err := k.MkdirAll("/net"); err != nil {
			return 0, err
		}
		tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
		if err != nil {
			return 0, err
		}
		c := workload.NewText(fileSeed(cfg, "eremote", 0), size, cfg.PageSize)
		workload.PlantMatch(c, size-size/4, needleBase)
		if _, err := k.Create("/net/testfile", mount.Device(), c); err != nil {
			return 0, err
		}
		// A previous consumer read the tail half: it is in the server's
		// cache. The client cache is then dropped.
		f, err := k.Open("/net/testfile")
		if err != nil {
			return 0, err
		}
		buf := make([]byte, size/2)
		f.ReadAt(buf, size/2)
		f.Close()
		k.DropCaches()
		k.ResetDeviceState()

		env := &appenv.Env{K: k, Table: tab, UseSLEDs: useSLEDs, BufSize: cfg.BufSize}
		start := k.Clock.Now()
		got, err := grepapp.Run(env, "/net/testfile", needleBase, grepapp.Options{FirstOnly: true})
		if err != nil {
			return 0, err
		}
		if len(got) != 1 {
			return 0, fmt.Errorf("ERemote: found %d matches", len(got))
		}
		return float64(k.Clock.Now()-start) / float64(simclock.Second), nil
	}

	secs, err := RunGrid(cfg, 2, func(mode int) (float64, error) { return run(mode) })
	if err != nil {
		return EHSMResult{}, err
	}
	without, with := secs[0], secs[1]
	res := EHSMResult{WithoutSeconds: without, WithSeconds: with, Speedup: without / with}
	res.Figure = Figure{
		ID: "eremote", Title: "grep -q on a remote file with a server-cached tail",
		XLabel: "mode", YLabel: "seconds",
		Series: []Series{{Name: "elapsed", Points: []Point{
			{X: 0, Mean: without}, {X: 1, Mean: with},
		}}},
		Notes: fmt.Sprintf("x=0 without SLEDs, x=1 with; speedup %.2gx — the client exploits the server's cache state", res.Speedup),
	}
	return res, nil
}

// EAccuracy measures the predictability claim of §5 ("The benefits of
// SLEDs include both useful predictability in I/O execution times..."):
// for each device, the sleds_total_delivery_time estimate of a cold file
// versus the measured time of the linear read, as a signed percentage
// error.
func EAccuracy(cfg Config) (Figure, error) {
	cfg.validate()
	fss := []string{"ext2", "cdrom", "nfs"}
	points, err := RunGrid(cfg, len(fss)*len(cfg.Sizes), func(i int) (Point, error) {
		fs := fss[i/len(cfg.Sizes)]
		sizeIdx := i % len(cfg.Sizes)
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
		f, err := m.K.Open("/data/testfile")
		if err != nil {
			return Point{}, err
		}
		m.K.ResetDeviceState()
		// Page-in only: the estimate covers retrieval, not the
		// user-space copy, so measure via the mapped read path,
		// streaming in large requests as lmbench's bandwidth
		// probe does (per-request overhead is not part of the
		// estimate's model). The buffer is per-run scratch, not
		// part of the measured closure.
		const stream = int64(256 << 10)
		buf := make([]byte, stream)
		actual, err := elapsedSeconds(m, func() error {
			for off := int64(0); off < size; off += stream {
				nn := stream
				if off+nn > size {
					nn = size - off
				}
				if _, err := f.ReadAtMapped(buf[:nn], off); err != nil && err != io.EOF {
					return err
				}
			}
			return nil
		})
		f.Close()
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
	var series []Series
	for fi, fs := range fss {
		series = append(series, Series{
			Name:   fs,
			Points: points[fi*len(cfg.Sizes) : (fi+1)*len(cfg.Sizes)],
		})
	}
	return Figure{
		ID:     "eaccuracy",
		Title:  "delivery-time estimate vs measured cold linear read, signed error",
		XLabel: "size MB", YLabel: "percent error (est-actual)/actual",
		Series: series,
		Notes:  "single-entry-per-device table (paper §4.1); zoned disks make the ext2 estimate size-dependent",
	}, nil
}
