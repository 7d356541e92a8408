package experiments

import (
	"fmt"
	"io"

	"sleds/internal/device"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// The scale experiment stress-tests the flat event-heap engine: up to
// 10,000 Program streams reading files spread across two dozen queued
// disks. It is not part of the committed golden outputs (it measures the
// engine, not the paper's claims) and runs only when selected explicitly;
// CI's scale-smoke target uses it to prove 10,000-stream runs complete
// and stay byte-identical at any worker count.

// scaleStreams is the stream-count sweep of the scale grid.
var scaleStreams = []int{100, 1000, 10000}

// scaleSchedulers lists the policies the scale grid drives. Deadline adds
// nothing here that sstf does not already stress (the same indexes back
// both).
var scaleSchedulers = []string{"fcfs", "sstf"}

// scaleDisks is the number of queued disks the streams spread across.
const scaleDisks = 24

// scaleFilePages is each stream's file length in pages: small enough that
// 10,000 files boot quickly, large enough that every stream suspends many
// times.
const scaleFilePages = 16

// scalePoint runs one (stream count, scheduler) point: n Program streams,
// each reading its own file front to back in page-sized chunks, files
// assigned round-robin across the disks. Plots virtual seconds to the
// last finish, then thousands of engine events processed, against n —
// both pure virtual-time quantities, so the rendered figure is
// byte-identical at any -workers. gen generates the files' bytes; EScale
// passes nil (see below).
func scalePoint(cfg Config, nIdx, si int, gen workload.PageGen) ([2]Point, error) {
	n := scaleStreams[nIdx]
	k, _ := newKernel(cfg.forPoint("escale", nIdx, si), device.Table2MemConfig(0))
	disks := make([]device.ID, scaleDisks)
	for d := range disks {
		disks[d] = k.AttachDevice(device.NewDisk(device.Table2DiskConfig(device.ID(d + 1))))
	}
	if err := k.MkdirAll("/data"); err != nil {
		return [2]Point{}, err
	}
	ps := int64(cfg.PageSize)
	size := scaleFilePages * ps
	// One shared content object behind all n files, content-free (nil gen)
	// in the experiment: the streams only move bytes they never inspect, and
	// every figure here is virtual time, which depends on which pages move
	// and not on what is in them (TestContentIndependence runs both ways).
	// Generating text cost more host time than the rest of the point; a
	// content-free page costs none, since the kernel caches it without a
	// buffer (workload.Content.ZeroPage).
	content := workload.New(size, cfg.PageSize, gen)
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		paths[i] = fmt.Sprintf("/data/s%d", i)
		if _, err := k.Create(paths[i], disks[i%scaleDisks], content); err != nil {
			return [2]Point{}, err
		}
	}

	e := iosched.NewEngine(k)
	for _, id := range disks {
		e.Queue(id, iosched.NewScheduler(scaleSchedulers[si]))
	}
	ids := make([]iosched.StreamID, n)
	for i, path := range paths {
		// Staggered starts desynchronize the streams so the queues see a
		// steady arrival mix instead of n simultaneous bursts.
		start := simclock.Duration(i%97) * 50 * simclock.Microsecond
		ids[i] = e.AddStream(start, &scaleReadProg{k: k, path: path, chunk: ps})
	}
	if err := e.Run(); err != nil {
		return [2]Point{}, err
	}
	x := float64(n)
	return [2]Point{{X: x, Mean: makespan(e, ids)}, {X: x, Mean: float64(e.Events()) / 1000}}, nil
}

// scaleReadProg is a stream state machine that reads path front to back
// in chunk-sized reads and looks at none of the bytes: the contention
// experiments' linear grep without the application. Each read is a
// PageIn at the offset the stream tracks, which charges what Read into a
// chunk-sized buffer charges, so the stream needs no buffer.
type scaleReadProg struct {
	k     *vfs.Kernel
	path  string
	chunk int64
	f     *vfs.File
	off   int64
}

// Step implements iosched.Program.
func (s *scaleReadProg) Step(h *iosched.Handle, prev iosched.Result) iosched.Op {
	if s.f == nil {
		f, err := s.k.Open(s.path)
		if err != nil {
			return iosched.Exit(err)
		}
		s.f = f
		return iosched.PageIn(f, 0, s.chunk)
	}
	if prev.Err != nil {
		s.f.Close()
		if prev.Err == io.EOF {
			return iosched.Exit(nil)
		}
		return iosched.Exit(prev.Err)
	}
	s.off += int64(prev.N)
	return iosched.PageIn(s.f, s.off, s.chunk)
}

// EScale regenerates the engine scale sweep: completion time and engine
// event counts for 100 to 10,000 concurrent streams over 24 queued disks.
func EScale(cfg Config) (Figure, error) {
	var secNames, eventNames []string
	for _, sched := range scaleSchedulers {
		secNames = append(secNames, sched+" seconds")
		eventNames = append(eventNames, sched+" events (k)")
	}
	cells, err := RunGrid(cfg, []int{len(scaleStreams), len(scaleSchedulers)}, func(cfg Config, at []int) ([2]Point, error) {
		return scalePoint(cfg, at[0], at[1], nil)
	})
	if err != nil {
		return Figure{}, err
	}
	secs, events := make([]Point, len(cells)), make([]Point, len(cells))
	for i, c := range cells {
		secs[i], events[i] = c[0], c[1]
	}
	return Figure{
		ID:     "escale",
		Title:  "engine scale: n streams over 24 queued disks",
		XLabel: "streams",
		YLabel: "seconds to last finish (events: thousands)",
		Series: append(columns(secs, secNames), columns(events, eventNames)...),
		Notes:  "Program streams on the flat event heap: one continuation per stream, no goroutine stacks; byte-identical at any -workers",
	}, nil
}
