package experiments

import (
	"fmt"

	"sleds/internal/apps/grepapp"
	"sleds/internal/core"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// The contention experiments exercise internal/iosched: several simulated
// processes sharing one disk behind a request scheduler. They extend the
// paper's single-process evaluation to the multi-process case its §6
// anticipates — under contention the dominant latency term is queueing,
// and SLED answers must reflect it.

// contentionStreams is the stream-count sweep of the contention grid.
var contentionStreams = []int{1, 2, 4, 8}

// contentionSchedulers lists the policies the contention grid compares.
var contentionSchedulers = []string{"fcfs", "sstf", "deadline"}

// contentionPoint runs one (stream count, scheduler, mode) point: n
// simulated grep processes, one file each on the shared disk, every file
// with a cache-warm tail. Oblivious readers scan front to back, refaulting
// tails that the other streams' insertions evict before they arrive;
// SLED-guided readers consume the cached tails first. Returns the virtual
// seconds from the engine base to the last stream's finish. One run per
// point: the engine is deterministic, so there is no variance to sample.
func contentionPoint(pcfg, baseCfg Config, nIdx, n int, sched string, useSLEDs bool) (float64, error) {
	m, err := BootMachine(pcfg, ProfileUnix)
	if err != nil {
		return 0, err
	}
	ps := int64(pcfg.PageSize)
	// Per-stream file size scales inversely with the stream count so the
	// warmed tails (half of every file) total 3/4 of the cache at any n:
	// they survive the warm-up, but the head insertions during the run
	// (3/4 of the cache again) push them out long before an oblivious
	// front-to-back reader arrives at them.
	size := pcfg.CacheBytes() * 3 / 2 / int64(n) / ps * ps
	tail := size / 2 / ps * ps
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		paths[i] = fmt.Sprintf("/data/s%d", i)
		// File content derives from the base seed and the point's grid row
		// only — never the mode or the scheduler — so every policy/mode
		// cell of a row greps byte-identical files.
		c := workload.NewText(fileSeed(baseCfg, "econtend", nIdx*16+i), size, pcfg.PageSize)
		if _, err := m.K.Create(paths[i], m.Disk, c); err != nil {
			return 0, err
		}
	}
	for _, path := range paths {
		if err := warmRange(m.K, path, size-tail, tail, (*vfs.File).PageInMapped); err != nil {
			return 0, err
		}
	}
	// The warm-up positioned the disk head; start the measured contention
	// run from power-on mechanical state, as measured() does between runs.
	m.K.ResetDeviceState()
	m.K.ResetRunStats()

	e := iosched.NewEngine(m.K)
	e.Queue(m.Disk, iosched.NewScheduler(sched))
	m.Table.SetLoad(e)
	env := m.Env(useSLEDs, pcfg.BufSize)
	var ids []iosched.StreamID
	for _, path := range paths {
		// needleBase never occurs and nothing is planted: the grep scans
		// the whole file, matching nothing.
		ids = append(ids, e.AddStream(0, grepapp.NewScan(env, path, needleBase, grepapp.Options{})))
	}
	if err := e.Run(); err != nil {
		return 0, err
	}
	return makespan(e, ids), nil
}

// makespan returns the virtual seconds from the engine's base to the last
// finish among the given streams.
func makespan(e *iosched.Engine, ids []iosched.StreamID) float64 {
	var last simclock.Duration
	for _, id := range ids {
		if f := e.FinishTime(id); f > last {
			last = f
		}
	}
	return seconds(last - e.Base())
}

// EContention regenerates the contention sweep: total completion time of n
// concurrent greps sharing one disk, for every scheduling policy, with and
// without SLED-guided access ordering.
func EContention(cfg Config) (Figure, error) {
	// One column per rendered cell: (scheduler, mode), with-SLEDs first.
	var names []string
	for _, sched := range contentionSchedulers {
		names = append(names, sched+" with SLEDs", sched+" without SLEDs")
	}
	series, err := gridSeries(cfg, len(contentionStreams), names, func(cfg Config, nIdx, col int) (Point, error) {
		si, mode := col/2, 1-col%2
		n := contentionStreams[nIdx]
		pcfg := cfg.forPoint("econtend", nIdx, si, mode)
		sec, err := contentionPoint(pcfg, cfg, nIdx, n, contentionSchedulers[si], mode == 1)
		if err != nil {
			return Point{}, err
		}
		return Point{X: float64(n), Mean: sec}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "econtend",
		Title:  "concurrent greps sharing one disk: total completion time by scheduler",
		XLabel: "streams",
		YLabel: "seconds to last finish",
		Series: series,
		Notes:  "files have cache-warm tails; oblivious readers refault tails evicted under contention, SLED-guided readers consume them first",
	}, nil
}

// ELoadSLED regenerates the load-aware estimate sweep: what FSLEDS_GET
// reports for a fully uncached file while n other processes keep the
// disk's request queue full. The estimated latency must grow with the
// queue depth (core.Table folds Load state into the table entry); the
// unloaded table entry is flat for reference.
func ELoadSLED(cfg Config) (Figure, error) {
	loads := []int{0, 1, 2, 4, 8}
	unloaded := Series{Name: "unloaded entry", Points: make([]Point, len(loads))} // calibrated table latency
	depth := Series{Name: "queue depth", Points: make([]Point, len(loads))}       // at the query instant
	estimated, err := RunGrid(cfg, len(loads), func(cfg Config, i int) (Point, error) {
		n := loads[i]
		pcfg := cfg.forPoint("eloadsled", i)
		m, err := BootMachine(pcfg, ProfileUnix)
		if err != nil {
			return Point{}, err
		}
		ps := int64(pcfg.PageSize)
		// The probed file: fully uncached, so every page reports the disk
		// entry.
		target, err := m.K.Create("/data/target", m.Disk,
			workload.NewText(fileSeed(cfg, "eloadsled-target", i), 16*ps, pcfg.PageSize))
		if err != nil {
			return Point{}, err
		}
		bgSize := pcfg.CacheBytes() / 2 / ps * ps
		var bgPaths []string
		for b := 0; b < n; b++ {
			path := fmt.Sprintf("/data/bg%d", b)
			c := workload.NewText(fileSeed(cfg, "eloadsled", i*16+b), bgSize, pcfg.PageSize)
			if _, err := m.K.Create(path, m.Disk, c); err != nil {
				return Point{}, err
			}
			bgPaths = append(bgPaths, path)
		}
		e := iosched.NewEngine(m.K)
		e.Queue(m.Disk, iosched.NewFCFS())
		m.Table.SetLoad(e)
		env := m.Env(false, pcfg.BufSize)
		for _, path := range bgPaths {
			e.AddStream(0, grepapp.NewScan(env, path, needleBase, grepapp.Options{}))
		}
		x := float64(n)
		est := Point{X: x} // SLED latency reported under load
		asked := false
		e.AddStream(0, iosched.ProgramFunc(func(h *iosched.Handle, _ iosched.Result) iosched.Op {
			if !asked {
				// Let the background streams saturate the queue, then ask.
				asked = true
				return iosched.Sleep(20 * simclock.Millisecond)
			}
			sleds, err := core.Query(m.K, m.Table, target)
			if err != nil {
				return iosched.Exit(err)
			}
			if len(sleds) != 1 {
				return iosched.Exit(fmt.Errorf("eloadsled: %d SLEDs for an uncached file, want 1", len(sleds)))
			}
			est.Mean = sleds[0].Latency
			depth.Points[i] = Point{X: x, Mean: float64(e.QueueDepth(m.Disk))}
			return iosched.Exit(nil)
		}))
		if err := e.Run(); err != nil {
			return Point{}, err
		}
		base, ok := m.Table.Device(m.Disk)
		if !ok {
			return Point{}, fmt.Errorf("eloadsled: no table entry for the disk")
		}
		unloaded.Points[i] = Point{X: x, Mean: base.Latency}
		return est, nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "eloadsled",
		Title:  "FSLEDS_GET latency estimate for an uncached file vs disk load",
		XLabel: "bg streams",
		YLabel: "seconds (depth: requests)",
		Series: []Series{{Name: "estimated latency", Points: estimated}, unloaded, depth},
		Notes:  "latency' = latency*(1+depth) + in-flight remaining; the estimate tracks the queue the probe would join",
	}, nil
}
