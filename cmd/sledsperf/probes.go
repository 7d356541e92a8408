package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"sleds/internal/apps/fitsapp"
	"sleds/internal/apps/grepapp"
	"sleds/internal/apps/wcapp"
	"sleds/internal/cache"
	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/experiments"
	"sleds/internal/fits"
	"sleds/internal/fleet"
	"sleds/internal/iosched"
	"sleds/internal/lmbench"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
	"sleds/internal/trace"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// A probe is the unit cost of one layer: timed direct calls into its
// public functions, at the page size and cache size of the workload
// being traced. Each probe takes probeBatches batches of at least
// probeCalls units (except where one unit costs milliseconds) and
// reports the median batch, in nanoseconds per unit.

const (
	probeBatches = 5
	probeCalls   = 10000
)

// probe prepares untimed state and returns the timed batch, which
// reports how many units it did.
type probe struct {
	name    string
	prepare func(cfg experiments.Config) (batch func() (units int, err error), err error)
	perMs   bool // the metric's unit is ms per unit, not ns
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measure returns the median cost per unit over the batches, in the
// metric's unit.
func (pr probe) measure(cfg experiments.Config, batches int) (float64, error) {
	vals := make([]float64, batches)
	for b := range vals {
		batch, err := pr.prepare(cfg)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", pr.name, err)
		}
		start := time.Now()
		units, err := batch()
		elapsed := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", pr.name, err)
		}
		if units <= 0 {
			return 0, fmt.Errorf("probe %s: batch did no work", pr.name)
		}
		vals[b] = float64(elapsed.Nanoseconds()) / float64(units)
	}
	if pr.perMs {
		return median(vals) / 1e6, nil
	}
	return median(vals), nil
}

// zeroFile creates a ZeroGen file of the given pages on the machine's
// disk, so no probe of the vfs or core pays for content generation.
func zeroFile(m *experiments.Machine, path string, pages int) (*vfs.File, error) {
	ps := m.K.PageSize()
	if _, err := m.K.Create(path, m.Disk, workload.New(int64(pages)*int64(ps), ps, nil)); err != nil {
		return nil, err
	}
	return m.K.Open(path)
}

// readPages reads count pages of f one page at a time, starting at page
// first and stepping by stride, wrapping at the file's end.
func readPages(f *vfs.File, ps, first, stride, count int) error {
	buf := make([]byte, ps)
	pages := int(f.Size()) / ps
	for i := 0; i < count; i++ {
		page := (first + i*stride) % pages
		if _, err := f.ReadAt(buf, int64(page)*int64(ps)); err != nil {
			return err
		}
	}
	return nil
}

// residentAppProbe times an application over a file that fits the cache:
// the app's own per-page work plus the vfs hit path, no device, and text
// generation only on the untimed first run.
func residentAppProbe(name string, profile experiments.Profile, content func(cfg experiments.Config, pages int) (*workload.Content, error),
	run func(m *experiments.Machine, run int) error) probe {
	return probe{name: name, prepare: func(cfg experiments.Config) (func() (int, error), error) {
		m, err := experiments.BootMachine(cfg, profile)
		if err != nil {
			return nil, err
		}
		pages := cfg.CachePages / 4
		c, err := content(cfg, pages)
		if err != nil {
			return nil, err
		}
		if _, err := m.K.Create("/data/in", m.Disk, c); err != nil {
			return nil, err
		}
		if err := run(m, 0); err != nil { // warms the cache
			return nil, err
		}
		filePages := int(c.Pages())
		return func() (int, error) {
			runs := probeCalls/filePages + 1
			for r := 1; r <= runs; r++ {
				if err := run(m, r); err != nil {
					return 0, err
				}
			}
			return runs * filePages, nil
		}, nil
	}}
}

// fullCache is an LRU cache of the workload's size holding pages
// 0..CachePages-1 of file 1, all sharing one page buffer.
func fullCache(cfg experiments.Config) (*cache.Cache, []byte, error) {
	c, page := cache.New(cfg.CachePages, cache.LRU, nil), make([]byte, cfg.PageSize)
	for p := 0; p < cfg.CachePages; p++ {
		if err := c.Insert(cache.Key{File: 1, Page: int64(p)}, page, false); err != nil {
			return nil, nil, err
		}
	}
	return c, page, nil
}

func textContent(cfg experiments.Config, pages int) (*workload.Content, error) {
	return workload.NewText(uint64(cfg.Seed), int64(pages)*int64(cfg.PageSize), cfg.PageSize), nil
}

// fragmentedFile builds a machine whose cache holds every other page of
// a 2048-page file: 1024 resident runs, the geometry of the query probes.
func fragmentedFile() (*experiments.Machine, *vfs.File, error) {
	cfg := experiments.QuickConfig()
	cfg.CachePages = 4096
	m, err := experiments.BootMachine(cfg, experiments.ProfileUnix)
	if err != nil {
		return nil, nil, err
	}
	f, err := zeroFile(m, "/data/frag", 2048)
	if err != nil {
		return nil, nil, err
	}
	return m, f, readPages(f, cfg.PageSize, 0, 2, 1024)
}

// queryProbe times core.QueryAppend on the fragmented file with the
// skeleton memo at the given capacity (0 = rebuild on every query).
func queryProbe(name string, memoFiles, calls int) probe {
	return probe{name: name, prepare: func(experiments.Config) (func() (int, error), error) {
		m, f, err := fragmentedFile()
		if err != nil {
			return nil, err
		}
		m.Table.SetMemoCapacity(memoFiles)
		dst, err := core.QueryAppend(nil, m.K, m.Table, f.Inode())
		if err != nil {
			return nil, err
		}
		return func() (int, error) {
			for i := 0; i < calls; i++ {
				if dst, err = core.QueryAppend(dst[:0], m.K, m.Table, f.Inode()); err != nil {
					return 0, err
				}
			}
			return calls, nil
		}, nil
	}}
}

// eventProbe times Engine.Run for n streams of 16 raw device reads each
// over 24 queued disks: the engine and scheduler index alone, no vfs, no
// cache, no content. The unit is one engine event.
func eventProbe(name string, n int) probe {
	return probe{name: name, prepare: func(cfg experiments.Config) (func() (int, error), error) {
		mem := device.NewMem(device.Table2MemConfig(0))
		k := vfs.NewKernel(vfs.Config{PageSize: cfg.PageSize, CachePages: cfg.CachePages, MemDevice: mem})
		k.AttachDevice(mem)
		disks := make([]device.ID, scaleDisks)
		for d := range disks {
			disks[d] = k.AttachDevice(device.NewDisk(device.Table2DiskConfig(device.ID(d + 1))))
		}
		e := iosched.NewEngine(k)
		for _, id := range disks {
			e.Queue(id, iosched.NewSSTF())
		}
		ps := int64(cfg.PageSize)
		for i := 0; i < n; i++ {
			dev, base, reads := disks[i%scaleDisks], int64(i)*scaleFilePages*ps, 0
			e.AddStream(simclock.Duration(i%97)*50*simclock.Microsecond, iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
				if prev.Err != nil || reads == scaleFilePages {
					return iosched.Exit(prev.Err)
				}
				reads++
				return iosched.DevRead(dev, base+int64(reads-1)*ps, ps)
			}))
		}
		return func() (int, error) {
			err := e.Run()
			return int(e.Events()), err
		}, nil
	}}
}

// traceProbeParams is a 10,000-record mixed trace over four files.
func traceProbeParams(cfg experiments.Config) trace.Params {
	p := trace.DefaultParams(uint64(cfg.Seed))
	p.Streams = traceStreams
	p.Records = probeCalls / traceStreams
	p.PageSize = int64(cfg.PageSize)
	p.RecLen = p.PageSize
	p.FileSize = 256 * p.PageSize
	p.Interarrival = 2 * simclock.Millisecond
	return p
}

// probes lists every unit-cost probe; the metric each feeds has the
// probe's name.
var probes = []probe{
	{name: "workload.textgen_ns_page", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		gen, buf := workload.TextGen(uint64(cfg.Seed)), make([]byte, cfg.PageSize)
		return func() (int, error) {
			for p := int64(0); p < probeCalls; p++ {
				gen(p, buf)
			}
			return probeCalls, nil
		}, nil
	}},
	{name: "workload.fitsgen_ns_page", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		im, err := lheaImage(int64(probeCalls) * int64(cfg.PageSize))
		if err != nil {
			return nil, err
		}
		gen, buf := fits.Gen(im, uint64(cfg.Seed), cfg.PageSize), make([]byte, cfg.PageSize)
		pages := im.FileSize() / int64(cfg.PageSize)
		return func() (int, error) {
			for p := int64(0); p < probeCalls; p++ {
				gen(p%pages, buf)
			}
			return probeCalls, nil
		}, nil
	}},
	residentAppProbe("apps.wc_ns_page", experiments.ProfileUnix, textContent, func(m *experiments.Machine, _ int) error {
		_, err := wcapp.Run(m.Env(false, 0), "/data/in")
		return err
	}),
	residentAppProbe("apps.grep_ns_page", experiments.ProfileUnix, textContent, func(m *experiments.Machine, _ int) error {
		_, err := grepapp.Run(m.Env(false, 0), "/data/in", needle, grepapp.Options{})
		return err
	}),
	residentAppProbe("apps.fimgbin_ns_page", experiments.ProfileLHEA,
		func(cfg experiments.Config, pages int) (*workload.Content, error) {
			im, err := lheaImage(int64(pages) * int64(cfg.PageSize))
			if err != nil {
				return nil, err
			}
			return fits.NewContent(im, uint64(cfg.Seed), cfg.PageSize), nil
		},
		func(m *experiments.Machine, run int) error {
			out := fmt.Sprintf("/data/out%d", run)
			if _, err := fitsapp.Fimgbin(m.Env(false, 0), "/data/in", out, 4, m.Disk); err != nil {
				return err
			}
			return m.K.Remove(out)
		}),
	{name: "cache.get_hit_ns", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		c, _, err := fullCache(cfg)
		if err != nil {
			return nil, err
		}
		return func() (int, error) {
			for i := 0; i < probeCalls; i++ {
				if _, ok := c.Get(cache.Key{File: 1, Page: int64(i*7) % int64(cfg.CachePages)}); !ok {
					return 0, errors.New("resident page missed")
				}
			}
			return probeCalls, nil
		}, nil
	}},
	{name: "cache.insert_evict_ns", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		c, page, err := fullCache(cfg)
		if err != nil {
			return nil, err
		}
		return func() (int, error) {
			for i := 0; i < probeCalls; i++ {
				if err := c.Insert(cache.Key{File: 2, Page: int64(i)}, page, false); err != nil {
					return 0, err
				}
			}
			return probeCalls, nil
		}, nil
	}},
	{name: "vfs.read_hit_ns_page", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		m, err := experiments.BootMachine(cfg, experiments.ProfileUnix)
		if err != nil {
			return nil, err
		}
		pages := cfg.CachePages / 2
		f, err := zeroFile(m, "/data/hit", pages)
		if err != nil {
			return nil, err
		}
		if err := readPages(f, cfg.PageSize, 0, 1, pages); err != nil {
			return nil, err
		}
		return func() (int, error) { return probeCalls, readPages(f, cfg.PageSize, 0, 1, probeCalls) }, nil
	}},
	{name: "vfs.read_miss_ns_page", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		m, err := experiments.BootMachine(cfg, experiments.ProfileUnix)
		if err != nil {
			return nil, err
		}
		f, err := zeroFile(m, "/data/miss", probeCalls)
		if err != nil {
			return nil, err
		}
		return func() (int, error) { return probeCalls, readPages(f, cfg.PageSize, 0, 1, probeCalls) }, nil
	}},
	{name: "vfs.write_ns_page", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		m, err := experiments.BootMachine(cfg, experiments.ProfileUnix)
		if err != nil {
			return nil, err
		}
		if _, err := m.K.CreateEmpty("/data/out", m.Disk); err != nil {
			return nil, err
		}
		f, err := m.K.Open("/data/out")
		if err != nil {
			return nil, err
		}
		// Twice the cache, written over and over: every page is dirtied,
		// evicted and written back before its next turn.
		pages, page := 2*cfg.CachePages, make([]byte, cfg.PageSize)
		return func() (int, error) {
			for i := 0; i < probeCalls; i++ {
				if _, err := f.WriteAt(page, int64(i%pages)*int64(cfg.PageSize)); err != nil {
					return 0, err
				}
			}
			return probeCalls, nil
		}, nil
	}},
	queryProbe("core.query_cold_ns", 0, probeCalls/10),
	queryProbe("core.query_warm_ns", core.DefaultMemoFiles, probeCalls),
	{name: "sledlib.pick_ns_chunk", prepare: func(experiments.Config) (func() (int, error), error) {
		m, f, err := fragmentedFile()
		if err != nil {
			return nil, err
		}
		return func() (int, error) {
			chunks := 0
			for chunks < probeCalls {
				pk, err := sledlib.PickInit(m.K, m.Table, f, sledlib.Options{BufSize: int64(m.K.PageSize())})
				if err != nil {
					return 0, err
				}
				for {
					if _, _, err := pk.NextRead(); err == sledlib.ErrFinished {
						break
					} else if err != nil {
						return 0, err
					}
					chunks++
				}
				pk.Finish()
			}
			return chunks, nil
		}, nil
	}},
	eventProbe("iosched.event_ns_n1k", 1000),
	eventProbe("iosched.event_ns_n10k", 10000),
	{name: "trace.generate_ns_record", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		return func() (int, error) {
			tr, err := trace.Generate("mixed", traceProbeParams(cfg))
			if err != nil {
				return 0, err
			}
			return len(tr.Records), nil
		}, nil
	}},
	{name: "trace.compile_ns_record", prepare: func(cfg experiments.Config) (func() (int, error), error) {
		m, err := experiments.BootMachine(cfg, experiments.ProfileUnix)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Generate("mixed", traceProbeParams(cfg))
		if err != nil {
			return nil, err
		}
		paths := make([]string, len(tr.Files))
		for i, spec := range tr.Files {
			paths[i] = fmt.Sprintf("/data/t%d", i)
			if _, err := m.K.Create(paths[i], m.Disk, workload.New(spec.Size, cfg.PageSize, nil)); err != nil {
				return nil, err
			}
		}
		return func() (int, error) {
			_, err := trace.NewReplay(m.K, m.Table, tr, paths, trace.Options{UseSLEDs: true, BatchWindow: traceBatchWindow})
			return len(tr.Records), err
		}, nil
	}},
	{name: "fleet.select_ns", prepare: func(experiments.Config) (func() (int, error), error) {
		// 16 replicas, each copy of the file fragmented in the client
		// cache (every other record resident), so every estimate walks runs.
		cfg := experiments.PaperConfig()
		mem := device.NewMem(device.DefaultMemConfig(0))
		k := vfs.NewKernel(vfs.Config{PageSize: cfg.PageSize, CachePages: cfg.CachePages, MemDevice: mem})
		k.AttachDevice(mem)
		fc := fleet.DefaultConfig()
		fc.Replicas = 16
		fc.Server.ServerCachePages = fleetServerCachePages
		fl, err := fleet.New(k, fc)
		if err != nil {
			return nil, err
		}
		tab, err := lmbench.Calibrate(k.Clock, mem, k.Devices.All())
		if err != nil {
			return nil, err
		}
		fl.SetTable(tab)
		ps := int64(cfg.PageSize)
		if err := fl.CreateFile("/fleet", uint64(cfg.Seed), fleetFilePages*ps); err != nil {
			return nil, err
		}
		recLen := fleetRecordPages * ps
		for i := 0; i < fl.Replicas(); i++ {
			f, err := k.OpenInode(fl.Replica(i).Inode())
			if err != nil {
				return nil, err
			}
			buf := make([]byte, recLen)
			for off := int64(0); off < f.Size(); off += 2 * recLen {
				if _, err := f.ReadAtMapped(buf, off); err != nil {
					return nil, err
				}
			}
			f.Close()
		}
		const records = fleetFilePages / fleetRecordPages
		return func() (int, error) {
			for i := 0; i < probeCalls; i++ {
				if _, err := fl.Select(int64(i*7%records)*recLen, recLen, k.Clock.Now()); err != nil {
					return 0, err
				}
			}
			return probeCalls, nil
		}, nil
	}},
	{name: "lmbench.calibrate_ms", perMs: true, prepare: func(cfg experiments.Config) (func() (int, error), error) {
		m, err := experiments.BootMachine(cfg, experiments.ProfileUnix)
		if err != nil {
			return nil, err
		}
		return func() (int, error) {
			for i := 0; i < msProbeCalls; i++ {
				if _, err := lmbench.Calibrate(m.K.Clock, m.Mem, m.K.Devices.All()); err != nil {
					return 0, err
				}
			}
			return msProbeCalls, nil
		}, nil
	}},
	{name: "experiments.boot_ms", perMs: true, prepare: func(cfg experiments.Config) (func() (int, error), error) {
		return func() (int, error) {
			for i := 0; i < msProbeCalls; i++ {
				if _, err := experiments.BootMachine(cfg, experiments.ProfileUnix); err != nil {
					return 0, err
				}
			}
			return msProbeCalls, nil
		}, nil
	}},
}

// msProbeCalls is the batch size of the two probes whose unit is a whole
// calibration or boot.
const msProbeCalls = 20

// stepMissAllocs reads cold pages through ReadAtStep, driven to
// completion, and reports heap allocations and bytes per page: the
// continuation layer's cost per miss, which Mallocs and TotalAlloc count
// exactly.
func stepMissAllocs(cfg experiments.Config) (allocs, bytes float64, err error) {
	m, err := experiments.BootMachine(cfg, experiments.ProfileUnix)
	if err != nil {
		return 0, 0, err
	}
	f, err := zeroFile(m, "/data/step", probeCalls)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, cfg.PageSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := int64(0); p < probeCalls; p++ {
		s := f.ReadAtStep(buf, p*int64(cfg.PageSize))
		for s.Blocked() {
			s = s.Resume(nil)
		}
		if s.Err() != nil {
			return 0, 0, s.Err()
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / probeCalls, float64(after.TotalAlloc-before.TotalAlloc) / probeCalls, nil
}

// runProbes measures every probe and returns metric name -> value, in
// the metric's unit.
func runProbes(cfg experiments.Config, batches int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, pr := range probes {
		v, err := pr.measure(cfg, batches)
		if err != nil {
			return nil, err
		}
		out[pr.name] = v
	}
	if n1k := out["iosched.event_ns_n1k"]; n1k > 0 {
		out["iosched.event_ratio_10k_1k"] = out["iosched.event_ns_n10k"] / n1k
	}
	var err error
	out["vfs.step_miss_allocs_page"], out["vfs.step_miss_bytes_page"], err = stepMissAllocs(cfg)
	return out, err
}
