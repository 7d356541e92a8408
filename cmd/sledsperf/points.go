package main

import (
	"fmt"
	"io"

	"sleds/internal/apps/fitsapp"
	"sleds/internal/apps/grepapp"
	"sleds/internal/apps/wcapp"
	"sleds/internal/cache"
	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/experiments"
	"sleds/internal/faults"
	"sleds/internal/fits"
	"sleds/internal/fleet"
	"sleds/internal/iosched"
	"sleds/internal/lmbench"
	"sleds/internal/simclock"
	"sleds/internal/trace"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// A rebuilt point is one representative grid point of a workload, put
// together from the public constructors the experiment itself uses, with
// an interposer at every boundary the caller owns. The experiments'
// per-point code is unexported, so the shapes below restate it; the
// constants are the experiments' own (scale.go, trace.go, fleet.go).

// pointResult is what a rebuilt point reports besides its spans.
type pointResult struct {
	// Sim holds the point's virtual-time results in a fixed order. A
	// traced and an untraced run of the same point must agree on every
	// one of them, and on Runs.
	Sim    []float64
	Runs   []vfs.RunStats // one per app run or engine run
	Cache  cache.Stats    // summed over the point's kernels
	Memo   core.MemoStats // summed over the point's sleds tables
	Events uint64         // iosched.Engine.Events, summed
	Faults int64          // faults.Stats.Faults of the injectors the point installed
	Calls  int            // app runs and engine runs made
}

// point carries the recorder and the accumulating result through a
// rebuilt point. rec is nil on the untraced run.
type point struct {
	rec *recorder
	cfg experiments.Config
	res pointResult
}

// seed derives a point-local seed the way the experiments do.
//
//sledlint:seed
func (p *point) seed(what string, idxs ...int) int64 {
	return experiments.PointSeed(p.cfg.Seed, "sledsperf-"+what, idxs...)
}

// collect folds a finished kernel's public counters into the result.
func (p *point) collect(k *vfs.Kernel, tab *core.Table) {
	cs := k.Cache().Stats()
	p.res.Cache.Hits += cs.Hits
	p.res.Cache.Misses += cs.Misses
	p.res.Cache.Inserts += cs.Inserts
	p.res.Cache.Evictions += cs.Evictions
	p.res.Cache.DirtyEvictions += cs.DirtyEvictions
	if tab != nil {
		ms := tab.MemoStats()
		p.res.Memo.Hits += ms.Hits
		p.res.Memo.Misses += ms.Misses
		p.res.Memo.FastCopies += ms.FastCopies
		p.res.Memo.Evictions += ms.Evictions
	}
}

// boot is experiments.BootMachine under a span.
func (p *point) boot(cfg experiments.Config, profile experiments.Profile) (*experiments.Machine, error) {
	id := p.rec.begin(spanBoot)
	m, err := experiments.BootMachine(cfg, profile)
	p.rec.end(id)
	return m, err
}

// create is Kernel.Create under a span.
func (p *point) create(k *vfs.Kernel, path string, dev device.ID, c *workload.Content) error {
	id := p.rec.begin(spanCreate)
	_, err := k.Create(path, dev, c)
	p.rec.end(id)
	return err
}

func seconds(d simclock.Duration) float64 { return float64(d) / float64(simclock.Second) }

// measured follows the experiments' measurement protocol on a booted
// machine: one warm-up run, then runs measured ones, cache state carried
// and device state reset between them. Every run is a span and an entry
// in Runs, the warm-up too (its host time is paid like any other); only
// measured runs enter Sim.
func (p *point) measured(k *vfs.Kernel, runs int, fn func(run int) error) error {
	for run := -1; run < runs; run++ {
		k.ResetDeviceState()
		k.ResetRunStats()
		start := k.Clock.Now()
		id := p.rec.begin(spanApp)
		err := fn(run)
		p.rec.end(id)
		if err != nil {
			return err
		}
		p.res.Calls++
		p.res.Runs = append(p.res.Runs, k.RunStats())
		if run >= 0 {
			p.res.Sim = append(p.res.Sim, seconds(k.Clock.Now()-start))
		}
	}
	return nil
}

// runEngine is Engine.Run under a span, with the engine's counters and
// the kernel's run stats collected after it.
func (p *point) runEngine(k *vfs.Kernel, e *iosched.Engine) error {
	id := p.rec.begin(spanEngine)
	err := e.Run()
	p.rec.end(id)
	p.res.Calls++
	p.res.Events += e.Events()
	p.res.Runs = append(p.res.Runs, k.RunStats())
	return err
}

// needle is the grep pattern the experiments plant; the text lexicon
// never produces it.
const needle = "xyzzy"

// figsPoint is wc and grep, both modes, on the largest size on ext2.
func figsPoint(p *point) error {
	cfg := p.cfg
	size := cfg.Sizes[len(cfg.Sizes)-1]
	for app := 0; app < 2; app++ {
		for mode := 0; mode < 2; mode++ {
			pcfg := cfg
			pcfg.Seed = p.seed("figs", app, mode)
			m, err := p.boot(pcfg, experiments.ProfileUnix)
			if err != nil {
				return err
			}
			// Content derives from the app only, so both modes read the same file.
			c := workload.New(size, cfg.PageSize, timedGen(p.rec, workload.TextGen(uint64(p.seed("figs-file", app)))))
			if app == 1 {
				// One planted match per cache quarter, as Fig10 does.
				step := cfg.CacheBytes() / 4
				for off := step / 2; off < size; off += step {
					workload.PlantMatch(c, off, needle)
				}
			}
			if err := p.create(m.K, "/data/testfile", m.Disk, c); err != nil {
				return err
			}
			timeDevices(p.rec, m.K)
			env := m.Env(mode == 1, cfg.BufSize)
			err = p.measured(m.K, cfg.Runs, func(int) error {
				if app == 0 {
					_, err := wcapp.Run(env, "/data/testfile")
					return err
				}
				_, err := grepapp.Run(env, "/data/testfile", needle, grepapp.Options{})
				return err
			})
			if err != nil {
				return err
			}
			p.collect(m.K, m.Table)
		}
	}
	return nil
}

// lheaImage picks the FITS geometry for a file size the way the LHEASOFT
// sweep does: 1024 16-bit pixels per row, height divisible by 4.
func lheaImage(size int64) (fits.Image, error) {
	const width = 1024
	height := size / (width * 2)
	height -= height % 4
	if height < 4 {
		height = 4
	}
	return fits.NewImage(width, int(height), 16)
}

// lheaPoint is fimhisto and fimgbin x4, both modes, on the largest
// LHEASOFT size.
func lheaPoint(p *point) error {
	cfg := p.cfg
	sizes := cfg.LHEASizes()
	im, err := lheaImage(sizes[len(sizes)-1])
	if err != nil {
		return err
	}
	for app := 0; app < 2; app++ {
		for mode := 0; mode < 2; mode++ {
			pcfg := cfg
			pcfg.Seed = p.seed("lhea", app, mode)
			m, err := p.boot(pcfg, experiments.ProfileLHEA)
			if err != nil {
				return err
			}
			gen := timedGen(p.rec, fits.Gen(im, uint64(p.seed("lhea-file", app)), cfg.PageSize))
			if err := p.create(m.K, "/data/img.fits", m.Disk, workload.New(im.FileSize(), cfg.PageSize, gen)); err != nil {
				return err
			}
			timeDevices(p.rec, m.K)
			env := m.Env(mode == 1, cfg.BufSize)
			outN := 0
			err = p.measured(m.K, cfg.Runs, func(int) error {
				outN++
				out := fmt.Sprintf("/data/out%03d.fits", outN)
				var err error
				if app == 0 {
					_, err = fitsapp.Fimhisto(env, "/data/img.fits", out, 64, m.Disk)
				} else {
					_, err = fitsapp.Fimgbin(env, "/data/img.fits", out, 4, m.Disk)
				}
				if err != nil {
					return err
				}
				return m.K.Remove(out)
			})
			if err != nil {
				return err
			}
			p.collect(m.K, m.Table)
		}
	}
	return nil
}

// The scale experiment's geometry (internal/experiments/scale.go).
const (
	scaleDisks     = 24
	scaleFilePages = 16
)

// scaleRun is one (stream count, scheduler) point of the scale grid: n
// Program streams, each reading its own 16-page file front to back in
// page-sized reads, files round-robin over 24 queued disks. It returns
// virtual seconds to the last finish and the engine's event count.
func scaleRun(p *point, seed int64, n int, sched string) (sec float64, events uint64, err error) {
	cfg := p.cfg
	boot := p.rec.begin(spanBoot)
	mem := device.NewMem(device.Table2MemConfig(0))
	k := vfs.NewKernel(vfs.Config{
		PageSize:       cfg.PageSize,
		CachePages:     cfg.CachePages,
		Policy:         cfg.Policy,
		ReadaheadPages: cfg.ReadaheadPages,
		MemDevice:      mem,
		JitterSeed:     seed,
		JitterFrac:     cfg.JitterFrac,
	})
	k.AttachDevice(mem)
	disks := make([]device.ID, scaleDisks)
	for d := range disks {
		disks[d] = k.AttachDevice(device.NewDisk(device.Table2DiskConfig(device.ID(d + 1))))
	}
	err = k.MkdirAll("/data")
	p.rec.end(boot)
	if err != nil {
		return 0, 0, err
	}
	size := scaleFilePages * int64(cfg.PageSize)
	content := workload.New(size, cfg.PageSize, timedGen(p.rec, workload.TextGen(uint64(p.seed("scale-file", n)))))
	paths := make([]string, n)
	create := p.rec.begin(spanCreate)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/s%d", i)
		if _, err = k.Create(paths[i], disks[i%scaleDisks], content); err != nil {
			break
		}
	}
	p.rec.end(create)
	if err != nil {
		return 0, 0, err
	}
	timeDevices(p.rec, k)

	e := iosched.NewEngine(k)
	for _, id := range disks {
		e.Queue(id, iosched.NewScheduler(sched))
	}
	for i, path := range paths {
		start := simclock.Duration(i%97) * 50 * simclock.Microsecond
		e.AddStream(start, timedProgram(p.rec, spanProgram, readProgram(k, path, cfg.PageSize)))
	}
	before := p.res.Events
	if err := p.runEngine(k, e); err != nil {
		return 0, 0, err
	}
	var last simclock.Duration
	for i := 0; i < n; i++ {
		if f := e.FinishTime(iosched.StreamID(i)); f > last {
			last = f
		}
	}
	p.collect(k, nil)
	return seconds(last - e.Base()), p.res.Events - before, nil
}

// readProgram reads path front to back in chunk-sized reads.
func readProgram(k *vfs.Kernel, path string, chunk int) iosched.Program {
	var f *vfs.File
	var buf []byte
	return iosched.ProgramFunc(func(h *iosched.Handle, prev iosched.Result) iosched.Op {
		if f == nil {
			var err error
			if f, err = k.Open(path); err != nil {
				return iosched.Exit(err)
			}
			buf = make([]byte, chunk)
			return iosched.Read(f, buf)
		}
		if prev.Err != nil {
			f.Close()
			if prev.Err == io.EOF {
				return iosched.Exit(nil)
			}
			return iosched.Exit(prev.Err)
		}
		return iosched.Read(f, buf)
	})
}

// scalePoint is 10,000 streams under sstf (100 under -smoke).
func scalePoint(p *point, smoke bool) error {
	n := 10000
	if smoke {
		n = 100
	}
	sec, _, err := scaleRun(p, p.seed("scale"), n, "sstf")
	p.res.Sim = append(p.res.Sim, sec)
	return err
}

// smokeScaleFigure renders the 100-stream point under both schedulers in
// EScale's layout; it is the smoke pass of the scale workload, because
// EScale's own sweep always runs to 10,000 streams.
func smokeScaleFigure(cfg experiments.Config) (experiments.Figure, error) {
	f := experiments.Figure{
		ID: "escale-smoke", Title: "engine scale: 100 streams over 24 queued disks",
		XLabel: "streams", YLabel: "seconds to last finish (events: thousands)",
	}
	var events []experiments.Series
	for si, sched := range []string{"fcfs", "sstf"} {
		p := &point{cfg: cfg}
		sec, ev, err := scaleRun(p, p.seed("scale", si), 100, sched)
		if err != nil {
			return f, err
		}
		f.Series = append(f.Series, experiments.Series{Name: sched + " seconds", Points: []experiments.Point{{X: 100, Mean: sec}}})
		events = append(events, experiments.Series{Name: sched + " events (k)", Points: []experiments.Point{{X: 100, Mean: float64(ev) / 1000}}})
	}
	f.Series = append(f.Series, events...)
	return f, nil
}

// The trace experiment's geometry (internal/experiments/trace.go).
const (
	traceStreams     = 4
	traceBatchWindow = 8 * simclock.Millisecond
)

// traceParams restates the generator parameters and warm-up plan of the
// olap and mixed classes. warm maps a file size to the byte range read
// into the cache before the replay.
func traceParams(cfg experiments.Config, class string, seed uint64) (p trace.Params, warm func(size int64) (from, to int64)) {
	ps := int64(cfg.PageSize)
	p = trace.DefaultParams(seed)
	p.Streams = traceStreams
	p.PageSize = ps
	p.Interarrival = 2 * simclock.Millisecond
	p.BurstGap = 50 * simclock.Millisecond
	switch class {
	case "olap":
		// Warm tails total 3/4 of the cache; the scans evict them before a
		// blind reader arrives.
		size := cfg.CacheBytes() * 3 / 2 / traceStreams / ps * ps
		p.FileSize = size
		p.RecLen = size / 64 / ps * ps
		if p.RecLen < ps {
			p.RecLen = ps
		}
		p.Records = int(size / p.RecLen)
		warm = func(size int64) (int64, int64) { return size / 2, size }
	case "mixed":
		// The Zipf hot set sits at the file front; warm the front quarter.
		p.FileSize = cfg.CacheBytes() / 4 / ps * ps
		p.RecLen = ps
		p.Records = 64
		warm = func(size int64) (int64, int64) { return 0, size / 4 }
	default:
		panic("sledsperf: traceParams knows olap and mixed, not " + class)
	}
	return p, warm
}

// traceRun replays one (class, mode) cell under sstf and appends the
// mean per-record latency (ms) and the makespan (s) to Sim.
func traceRun(p *point, classIdx int, class string, guided bool) error {
	cfg := p.cfg
	mode := 0
	if guided {
		mode = 1
	}
	pcfg := cfg
	pcfg.Seed = p.seed("trace", classIdx, mode)
	m, err := p.boot(pcfg, experiments.ProfileUnix)
	if err != nil {
		return err
	}
	params, warm := traceParams(cfg, class, uint64(p.seed("trace-gen", classIdx)))
	id := p.rec.begin(spanTraceGen)
	tr, err := trace.Generate(class, params)
	p.rec.end(id)
	if err != nil {
		return err
	}
	paths := make([]string, len(tr.Files))
	for i, spec := range tr.Files {
		paths[i] = fmt.Sprintf("/data/trace%d", i)
		// Content derives from the class and file only: both modes replay
		// identical bytes.
		gen := timedGen(p.rec, workload.TextGen(uint64(p.seed("trace-file", classIdx, i))))
		if err := p.create(m.K, paths[i], m.Disk, workload.New(spec.Size, cfg.PageSize, gen)); err != nil {
			return err
		}
	}
	timeDevices(p.rec, m.K)
	id = p.rec.begin(spanWarm)
	for i, path := range paths {
		from, to := warm(tr.Files[i].Size)
		f, err := m.K.Open(path)
		if err == nil {
			_, err = f.ReadAtMapped(make([]byte, to-from), from)
			f.Close()
		}
		if err != nil {
			p.rec.end(id)
			return err
		}
	}
	p.rec.end(id)
	m.K.ResetDeviceState()
	m.K.ResetRunStats()

	id = p.rec.begin(spanTraceCompile)
	rep, err := trace.NewReplay(m.K, m.Table, tr, paths, trace.Options{UseSLEDs: guided, BatchWindow: traceBatchWindow})
	p.rec.end(id)
	if err != nil {
		return err
	}
	e := iosched.NewEngine(m.K)
	e.Queue(m.Disk, iosched.NewScheduler("sstf"))
	m.Table.SetLoad(e)
	ids := rep.AddStreams(e)
	if err := p.runEngine(m.K, e); err != nil {
		return err
	}
	if n := rep.IOErrors(); n > 0 {
		return fmt.Errorf("trace replay of %s: %d records completed with an I/O error", class, n)
	}
	var last simclock.Duration
	for _, sid := range ids {
		if f := e.FinishTime(sid); f > last {
			last = f
		}
	}
	var sum simclock.Duration
	for _, l := range rep.Latencies() {
		sum += l
	}
	meanMs := float64(sum) / float64(len(rep.Latencies())) / float64(simclock.Millisecond)
	p.res.Sim = append(p.res.Sim, meanMs, seconds(last-e.Base()))
	p.collect(m.K, m.Table)
	return nil
}

// tracePoint is olap and mixed under sstf, blind and guided.
func tracePoint(p *point, smoke bool) error {
	classes := []string{"mixed", "olap"}
	if smoke {
		classes = classes[1:]
	}
	for ci, class := range classes {
		for _, guided := range []bool{false, true} {
			if err := traceRun(p, ci, class, guided); err != nil {
				return err
			}
		}
	}
	return nil
}

// The fleet experiment's geometry (internal/experiments/fleet.go).
const (
	fleetServerCachePages = 64
	fleetFilePages        = 256
	fleetRecordPages      = 4
	fleetReadsPerStream   = 4
	fleetProbeEvery       = 64
)

// fleetScenario is the part of an efleet scenario the rebuilt point
// needs: arrival stagger, think time, how record indexes are drawn, and
// whether replica 0 times out on every request.
type fleetScenario struct {
	name           string
	stagger, think simclock.Duration
	draw           func(rng *trace.RNG) int
	failReplica0   bool
}

func fleetScenarios() []fleetScenario {
	const records = fleetFilePages / fleetRecordPages
	zipf := trace.NewZipf(records, 1.1)
	return []fleetScenario{
		{name: "hotspot", stagger: 2 * simclock.Millisecond, think: 5 * simclock.Millisecond,
			draw: func(r *trace.RNG) int { return zipf.Sample(r) }},
		{name: "degraded", stagger: 5 * simclock.Millisecond, think: 10 * simclock.Millisecond,
			draw: func(r *trace.RNG) int { return int(r.Int64n(records)) }, failReplica0: true},
	}
}

// fleetStream drives one stream's reads: a fleet.Read per record, a
// think-time sleep between reads, latency recorded per read.
type fleetStream struct {
	f       *fleet.Fleet
	offs    []int64
	readLen int64
	think   simclock.Duration

	cur      int
	rd       *fleet.Read
	started  simclock.Duration
	thinking bool

	lat  simclock.Duration // summed per-read latency
	errs int
}

// Step implements iosched.Program.
func (s *fleetStream) Step(h *iosched.Handle, prev iosched.Result) iosched.Op {
	for {
		if s.rd == nil {
			if s.cur >= len(s.offs) {
				return iosched.Exit(nil)
			}
			if s.cur > 0 && !s.thinking {
				s.thinking = true
				return iosched.Sleep(s.think)
			}
			s.thinking = false
			s.rd = s.f.StartRead(fleet.PolicySLEDHedge, s.offs[s.cur], s.readLen)
			s.started = h.Now()
			prev = iosched.Result{}
		}
		op, done := s.rd.Step(h, prev)
		if !done {
			return op
		}
		s.lat += h.Now() - s.started
		if s.rd.Err != nil {
			s.errs++
		}
		s.cur++
		s.rd = nil
	}
}

// fleetRun plays one scenario under sled+hedge and appends the mean
// per-read latency (ms) to Sim.
func fleetRun(p *point, rep, si int, scen fleetScenario, replicas, streams int) error {
	cfg := p.cfg
	seed := p.seed("fleet", rep, si)
	boot := p.rec.begin(spanBoot)
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{
		PageSize:   cfg.PageSize,
		CachePages: cfg.CachePages,
		MemDevice:  mem,
		JitterSeed: seed,
		JitterFrac: cfg.JitterFrac,
	})
	k.AttachDevice(mem)
	fc := fleet.DefaultConfig()
	fc.Replicas = replicas
	fc.Server.ServerCachePages = fleetServerCachePages
	fc.ProbeEvery = fleetProbeEvery
	fl, err := fleet.New(k, fc)
	var tab *core.Table
	if err == nil {
		tab, err = lmbench.Calibrate(k.Clock, mem, k.Devices.All())
	}
	p.rec.end(boot)
	if err != nil {
		return err
	}
	fl.SetTable(tab)
	ps := int64(cfg.PageSize)
	recLen := fleetRecordPages * ps
	id := p.rec.begin(spanCreate)
	err = fl.CreateFile("/fleet", uint64(p.seed("fleet-file", rep, si)), fleetFilePages*ps)
	p.rec.end(id)
	if err != nil {
		return err
	}
	k.ResetDeviceState()
	var inj *faults.Injector
	if scen.failReplica0 {
		dev := fl.Replica(0).Dev
		var wrapped device.Device
		wrapped, inj = faults.Wrap(k.Devices.Get(dev), faults.Config{Seed: p.seed("fleet-inj", rep, si), PFault: 1, MaxConsecutive: 1})
		k.Devices.Replace(dev, wrapped)
	}
	timeDevices(p.rec, k)

	e := iosched.NewEngine(k)
	for i := 0; i < fl.Replicas(); i++ {
		e.Queue(fl.Replica(i).Dev, iosched.NewFCFS())
	}
	tab.SetLoad(e)
	fl.ObserveLateFaults(e)
	rng := trace.NewRNG(uint64(p.seed("fleet-sched", rep, si)))
	all := make([]*fleetStream, streams)
	for i := range all {
		offs := make([]int64, fleetReadsPerStream)
		for j := range offs {
			offs[j] = int64(scen.draw(rng)) * recLen
		}
		all[i] = &fleetStream{f: fl, offs: offs, readLen: recLen, think: scen.think}
		e.AddStream(simclock.Duration(i)*scen.stagger, timedProgram(p.rec, spanFleet, all[i]))
	}
	if err := p.runEngine(k, e); err != nil {
		return err
	}
	var lat simclock.Duration
	errs := 0
	for _, s := range all {
		lat += s.lat
		errs += s.errs
	}
	if errs > 0 {
		return fmt.Errorf("fleet %s: %d reads exhausted their retry budget", scen.name, errs)
	}
	if inj != nil {
		p.res.Faults += inj.Stats().Faults
	}
	p.res.Sim = append(p.res.Sim, float64(lat)/float64(streams*fleetReadsPerStream)/float64(simclock.Millisecond))
	p.collect(k, tab)
	return nil
}

// fleetPointRepeats is how many independently seeded repetitions the
// rebuilt fleet point plays. One (scenario, policy) cell is about 40 ms
// of host time, too little to take shares of, so the point repeats it
// the way EFleet's pass repeats seeds.
const fleetPointRepeats = 8

// fleetPoint is hotspot and degraded on 16 replicas under sled+hedge.
// The issue names hotspot alone; degraded rides along because it is the
// only scenario with an injector, and faults.injected would otherwise
// read 0 whatever the code does.
func fleetPoint(p *point, smoke bool) error {
	replicas, streams, repeats := 16, 2000, fleetPointRepeats
	if smoke {
		replicas, streams, repeats = 4, 100, 1
	}
	for rep := 0; rep < repeats; rep++ {
		for si, scen := range fleetScenarios() {
			if err := fleetRun(p, rep, si, scen, replicas, streams); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPoint rebuilds the workload's representative point once, under a
// root span when rec is non-nil.
func runPoint(w workloadDef, rec *recorder, seed int64, smoke bool) (pointResult, error) {
	p := &point{rec: rec, cfg: w.config(seed, smoke)}
	id := rec.begin(spanPoint)
	var err error
	switch w.name {
	case "figs":
		err = figsPoint(p)
	case "lhea":
		err = lheaPoint(p)
	case "scale":
		err = scalePoint(p, smoke)
	case "trace":
		err = tracePoint(p, smoke)
	case "fleet":
		err = fleetPoint(p, smoke)
	default:
		err = fmt.Errorf("no rebuilt point for workload %q", w.name)
	}
	rec.end(id)
	return p.res, err
}
