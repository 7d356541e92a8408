package experiments

import (
	"fmt"
	"slices"
	"strings"

	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/stats"
	"sleds/internal/trace"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// The etrace experiment replays the internal/trace workload zoo over the
// queued-device kernel: every workload class x scheduler x SLED mode, on
// the identical generated trace, reporting per-record virtual-time
// latencies and the makespan. It is the grid that shows where SLED-guided
// issue ordering wins, where it is neutral, and where its gather window is
// pure overhead — schedulers cannot save an application that asks for the
// wrong thing first, and SLEDs cannot help one that never gives them a
// batch to reorder.
//
// Per-class cache setup (every setup derives from the base seed and the
// class only, never the scheduler or mode, so all six cells of a class
// replay the identical trace against byte-identical files):
//
//   - olap: econtend's contention shape — per-stream files sized at 3/2 of
//     a cache share with warm tails totalling 3/4 of the cache, scanned
//     front to back in one burst. Blind replay refaults every tail;
//     SLED-guided replay consumes the cached tails first. The win class.
//   - oltp: a fully cache-resident working set, uniform point reads every
//     2 ms. Every estimate is flat memory, so reordering is a no-op and
//     the gather window only delays cache hits. The loss class.
//   - bursty: cold files, reads arriving in simultaneous bursts. The gate
//     waits for nothing (the whole batch arrives at once) and flat cold
//     estimates keep trace order: the schedule is identical by
//     construction. The neutral class.
//   - zipf, mixed: hot-set point ops with the hot front quarter of each
//     file pre-warmed; batches mix cache hits and misses, and issuing the
//     hits first keeps them from queueing behind a disk read.

// etraceSchedulers lists the policies the etrace grid compares.
var etraceSchedulers = []string{"fcfs", "sstf", "deadline"}

// etraceStreams is the per-class stream count.
const etraceStreams = 4

// etraceBatchWindow is the SLED-mode gather window: wider than the point
// classes' 2 ms interarrival (so batches form) and small against device
// latencies (so the olap win is not an artifact of batching alone).
const etraceBatchWindow = 8 * simclock.Millisecond

// etraceCell is the measurement of one (class, scheduler, mode) point.
type etraceCell struct {
	meanMs, p50Ms, p99Ms float64
	makespanSec          float64
}

// ETraceRow is one rendered row: a class under a scheduler, both modes
// side by side.
type ETraceRow struct {
	Class, Sched    string
	Blind, Guided   etraceCell
	Speedup         float64 // blind mean latency / guided mean latency
	MakespanSpeedup float64 // blind makespan / guided makespan
}

// ETraceReport is the etrace experiment's product.
type ETraceReport struct {
	Classes []string
	Rows    []ETraceRow
}

// etraceParams builds the class's generator parameters and its cache
// warm-up plan: warm maps a file's size to the byte range read before the
// replay (nil: the class starts cold). Everything here is a pure function
// of the base config and the class index — the scheduler and mode never
// enter.
func etraceParams(cfg Config, classIdx int, class string) (p trace.Params, warm func(size int64) (off, n int64)) {
	ps := int64(cfg.PageSize)
	p = trace.DefaultParams(fileSeed(cfg, "etrace-gen", classIdx))
	p.Streams = etraceStreams
	p.PageSize = ps
	p.Interarrival = 2 * simclock.Millisecond
	p.BurstGap = 50 * simclock.Millisecond
	switch class {
	case "olap":
		// econtend's sizing: warm tails total 3/4 of the cache and the
		// scans insert enough to evict them before a blind reader arrives.
		size := cfg.CacheBytes() * 3 / 2 / etraceStreams / ps * ps
		p.FileSize = size
		p.RecLen = size / 64 / ps * ps
		if p.RecLen < ps {
			p.RecLen = ps
		}
		p.Records = int(size / p.RecLen)
		warm = func(size int64) (off, n int64) { return size / 2, size - size/2 }
	case "oltp":
		// Half the cache across the four streams, fully resident.
		p.FileSize = cfg.CacheBytes() / 8 / ps * ps
		p.RecLen = ps
		p.Records = 64
		warm = func(size int64) (off, n int64) { return 0, size }
	case "zipf", "mixed":
		// The Zipf hot set sits at the file front; warm the front quarter.
		p.FileSize = cfg.CacheBytes() / 4 / ps * ps
		p.RecLen = ps
		p.Records = 64
		warm = func(size int64) (off, n int64) { return 0, size / 4 }
	case "bursty":
		p.FileSize = cfg.CacheBytes() / 4 / ps * ps
		p.RecLen = ps
		p.Records = 64
	}
	return p, warm
}

// etracePoint replays one (class, scheduler, mode) cell and reduces its
// per-record latencies. classIdx is the class's index in the full sorted
// zoo, not in a selection, so a class's cells are the same whatever subset
// it runs in. gen generates the files' bytes; ETrace passes nil, so every
// page is a zero page the kernel caches without a buffer: replay and
// warm-up move bytes they never inspect (see scalePoint).
func etracePoint(cfg Config, classIdx, si, mode int, gen workload.PageGen) (etraceCell, error) {
	m, err := BootMachine(cfg.forPoint("etrace", classIdx, si, mode), ProfileUnix)
	if err != nil {
		return etraceCell{}, err
	}
	class := trace.Classes()[classIdx]
	p, warm := etraceParams(cfg, classIdx, class)
	tr, err := trace.Generate(class, p)
	if err != nil {
		return etraceCell{}, err
	}
	paths := make([]string, len(tr.Files))
	for i, spec := range tr.Files {
		paths[i] = fmt.Sprintf("/data/trace%d", i)
		if _, err := m.K.Create(paths[i], m.Disk, workload.New(spec.Size, cfg.PageSize, gen)); err != nil {
			return etraceCell{}, err
		}
	}
	if warm != nil {
		for i, path := range paths {
			off, n := warm(tr.Files[i].Size)
			if err := warmRange(m.K, path, off, n, (*vfs.File).PageInMapped); err != nil {
				return etraceCell{}, err
			}
		}
	}
	// The warm-up positioned the disk head; measure from power-on
	// mechanical state, as every experiment does.
	m.K.ResetDeviceState()
	m.K.ResetRunStats()

	rep, err := trace.NewReplay(m.K, m.Table, tr, paths, trace.Options{
		UseSLEDs:    mode == 1,
		BatchWindow: etraceBatchWindow,
	})
	if err != nil {
		return etraceCell{}, err
	}
	e := iosched.NewEngine(m.K)
	e.Queue(m.Disk, iosched.NewScheduler(etraceSchedulers[si]))
	m.Table.SetLoad(e)
	ids := rep.AddStreams(e)
	if err := e.Run(); err != nil {
		return etraceCell{}, err
	}
	lats := make([]float64, len(rep.Latencies()))
	for i, l := range rep.Latencies() {
		lats[i] = float64(l) / float64(simclock.Millisecond)
	}
	cell := etraceCell{makespanSec: makespan(e, ids)}
	cell.meanMs, cell.p50Ms, cell.p99Ms = latencySummary(lats)
	return cell, nil
}

// latencySummary reduces per-operation latencies to the mean, median and
// 99th percentile the replay and fleet reports print.
func latencySummary(lats []float64) (mean, p50, p99 float64) {
	sample := &stats.Sample{}
	for _, l := range lats {
		sample.Add(l)
	}
	cdf := stats.NewCDF(lats)
	return sample.Mean(), cdf.Quantile(0.50), cdf.Quantile(0.99)
}

// ETrace regenerates the trace-replay grid: the selected workload classes
// of the zoo under every scheduler, blind vs SLED-guided, on identical
// traces. No classes means all of them. Unknown class names return
// trace.UnknownClassError. A class's cells are identical whatever subset
// it is selected in: seeds derive from the class's index in the full
// sorted zoo, not its position in the selection.
func ETrace(cfg Config, selected ...string) (ETraceReport, error) {
	zoo := trace.Classes() // sorted
	for _, c := range selected {
		if !slices.Contains(zoo, c) {
			return ETraceReport{}, trace.UnknownClassError(c)
		}
	}
	classes := zoo
	if len(selected) > 0 {
		classes = nil
		for _, c := range zoo {
			if slices.Contains(selected, c) {
				classes = append(classes, c)
			}
		}
	}
	points, err := RunGrid(cfg, []int{len(classes), len(etraceSchedulers), len(modeNames)}, func(cfg Config, at []int) (etraceCell, error) {
		return etracePoint(cfg, slices.Index(zoo, classes[at[0]]), at[1], at[2], nil)
	})
	if err != nil {
		return ETraceReport{}, err
	}
	rep := ETraceReport{Classes: classes}
	for _, class := range classes {
		for _, sched := range etraceSchedulers {
			// The points are in row order, blind before guided.
			blind, guided := points[2*len(rep.Rows)], points[2*len(rep.Rows)+1]
			row := ETraceRow{Class: class, Sched: sched, Blind: blind, Guided: guided}
			if guided.meanMs > 0 {
				row.Speedup = blind.meanMs / guided.meanMs
			}
			if guided.makespanSec > 0 {
				row.MakespanSpeedup = blind.makespanSec / guided.makespanSec
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// Render draws the report as the deterministic text block sledsbench
// prints (and make trace-smoke diffs across worker counts).
func (r ETraceReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== etrace: trace replay, %d workload classes x %d schedulers, blind vs SLED-guided\n",
		len(r.Classes), len(etraceSchedulers))
	b.WriteString("   per-record virtual-time latency (ms) and makespan (s); speedup = blind mean / guided mean\n")
	fmt.Fprintf(&b, "  %-7s %-9s %11s %11s %9s %9s %9s %9s %9s %9s %8s\n",
		"class", "scheduler", "blind mean", "guided mean",
		"blind p50", "guided p50", "blind p99", "guided p99",
		"blind mk", "guided mk", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-7s %-9s %11.4g %11.4g %9.4g %9.4g %9.4g %9.4g %9.4g %9.4g %8.3g\n",
			row.Class, row.Sched,
			row.Blind.meanMs, row.Guided.meanMs,
			row.Blind.p50Ms, row.Guided.p50Ms,
			row.Blind.p99Ms, row.Guided.p99Ms,
			row.Blind.makespanSec, row.Guided.makespanSec,
			row.Speedup)
	}
	b.WriteString("  olap wins (cached tails consumed before the scans evict them); oltp loses (gather delay on\n")
	b.WriteString("  cache hits); bursty is neutral by construction (simultaneous arrivals, flat cold estimates)\n")
	return b.String()
}
