package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"syscall"
	"time"
)

// procs is the GOMAXPROCS every child runs at: two, and never more
// threads than cores.
func procs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// passResult is what a pass child (and, with only FirstCallUnixNs set, a
// setup child) prints.
type passResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// FirstCallUnixNs is the wall clock at the first experiment call:
	// exec, runtime and package init, flag parsing and file loading lie
	// before it and are the set-up; everything after it is the pass.
	FirstCallUnixNs int64 `json:"first_call_unix_ns"`

	HostS     float64 `json:"host_s"`
	AllocMB   float64 `json:"alloc_mb"`
	MallocsK  float64 `json:"mallocs_k"`
	GCCycles  float64 `json:"gc_cycles"`
	GCPauseMs float64 `json:"gc_pause_ms"`
	RSSPeakMB float64 `json:"rss_peak_mb"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the first 16 hex digits of the SHA-256 of everything the
	// pass rendered, in call order.
	Digest string             `json:"digest"`
	Sim    map[string]float64 `json:"sim,omitempty"`
}

// ledgerResult is what a ledger child prints.
type ledgerResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	TracePath string             `json:"trace_path"`
}

func runChild(o options, w workloadDef, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(procs())
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "sledsperf: %v\n", err)
		return 1
	}
	switch o.child {
	case "pass", "setup":
		r, err := runPass(w, root, o.seed, o.smoke, o.child == "setup")
		if err != nil {
			fmt.Fprintf(stderr, "sledsperf: %v\n", err)
			return 1
		}
		writeJSON(stdout, r, false)
	case "ledger":
		r, err := runLedger(w, root, o.seed, o.smoke)
		if err != nil {
			fmt.Fprintf(stderr, "sledsperf: %v\n", err)
			return 1
		}
		writeJSON(stdout, r, false)
	default:
		fmt.Fprintf(stderr, "sledsperf: unknown -child mode %q\n", o.child)
		return 2
	}
	return 0
}

// runPass makes one untraced pass of w: every call once per seed, timed
// from the first call to the last return, then verified. An error is a
// broken environment; a failed operation is counted in the result.
func runPass(w workloadDef, root string, seed int64, smoke, setupOnly bool) (passResult, error) {
	res := passResult{Workload: w.name, Seed: seed, Sim: map[string]float64{}}
	goldenText, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return res, err
	}
	seeds, calls := w.plan(smoke)
	type made struct {
		c    call
		seed int64
		out  output
		err  error
	}
	all := make([]made, 0, seeds*len(calls))

	res.FirstCallUnixNs = time.Now().UnixNano()
	if setupOnly {
		return res, nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for s := int64(0); s < int64(seeds); s++ {
		//sledlint:allow seedflow -- a pass is what a user runs: sledsbench at seeds S, S+1, ...; each experiment derives its point seeds from the base itself
		cfg := w.config(seed+s, smoke)
		for _, c := range calls {
			out, err := c.run(cfg)
			all = append(all, made{c, seed + s, out, err})
		}
	}
	res.HostS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	res.MallocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	res.GCCycles = float64(after.NumGC - before.NumGC)
	res.GCPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.RSSPeakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	h := sha256.New()
	for _, m := range all {
		res.Attempted++
		golden := ""
		if !smoke && m.seed == defaultSeed {
			golden = string(goldenText)
		}
		err := m.err
		if err == nil {
			err = verify(m.c, m.out, golden)
		}
		if err != nil {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%s (seed %d): %v", m.c.name, m.seed, err))
		}
		io.WriteString(h, m.out.text)
		if m.seed == seed {
			for k, v := range m.out.sim {
				res.Sim[k] = v
			}
		}
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	return res, nil
}

// runLedger makes the traced pass of w: the rebuilt point untraced, the
// same point traced, the public counters after it, and the probes.
func runLedger(w workloadDef, root string, seed int64, smoke bool) (ledgerResult, error) {
	res := ledgerResult{Workload: w.name, Metrics: map[string]float64{}}
	fail := func(format string, args ...any) {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	runtime.GC()
	start := time.Now()
	plain, err := runPoint(w, nil, seed, smoke)
	plainWall := time.Since(start).Seconds()
	res.Attempted += plain.Calls
	if err != nil {
		fail("untraced point: %v", err)
	}

	runtime.GC()
	rec := newRecorder()
	start = time.Now()
	traced, err := runPoint(w, rec, seed, smoke)
	wall := time.Since(start).Seconds()
	res.Attempted += traced.Calls
	if err != nil {
		fail("traced point: %v", err)
	}
	// The interposers must be transparent: same virtual-time results,
	// same kernel counters.
	if !reflect.DeepEqual(plain.Sim, traced.Sim) || !reflect.DeepEqual(plain.Runs, traced.Runs) {
		fail("the traced point's simulated results differ from the untraced point's")
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}

	led := rec.aggregate(w.name, seed, wall)
	if res.TracePath, err = led.write(filepath.Join(benchDir(root), "out")); err != nil {
		return res, err
	}
	m := res.Metrics
	var genN, devN int64
	genN, m["workload.gen_s"], _ = led.total(spanGen)
	m["workload.gen_pages"] = float64(genN)
	m["workload.gen_share"] = m["workload.gen_s"] / wall
	devN, m["device.model_s"], _ = led.total(spanDevice)
	m["device.calls"] = float64(devN)
	_, _, m["apps.step_s"] = led.total(spanApp)
	_, _, m["iosched.run_s"] = led.total(spanEngine)
	m["iosched.events"] = float64(traced.Events)
	if traced.Events > 0 {
		m["iosched.ns_per_event"] = m["iosched.run_s"] * 1e9 / float64(traced.Events)
	}
	m["tracing.overhead_pct"] = 100 * (wall - plainWall) / plainWall

	m["cache.hits"] = float64(traced.Cache.Hits)
	m["cache.misses"] = float64(traced.Cache.Misses)
	m["cache.inserts"] = float64(traced.Cache.Inserts)
	m["cache.evictions"] = float64(traced.Cache.Evictions)
	m["cache.dirty_evictions"] = float64(traced.Cache.DirtyEvictions)
	m["cache.hit_ratio"] = ratio(traced.Cache.Hits, traced.Cache.Hits+traced.Cache.Misses)
	for _, rs := range traced.Runs {
		m["vfs.faults"] += float64(rs.Faults)
		m["vfs.cache_hits"] += float64(rs.CacheHits)
		m["vfs.bytes_read"] += float64(rs.BytesRead)
		m["vfs.bytes_written"] += float64(rs.BytesWritten)
		m["vfs.pages_written_dev"] += float64(rs.PagesWrittenDev)
		m["vfs.retries"] += float64(rs.Retries)
		m["vfs.eios"] += float64(rs.EIOs)
	}
	m["core.memo_hits"] = float64(traced.Memo.Hits)
	m["core.memo_misses"] = float64(traced.Memo.Misses)
	m["core.memo_fast_copies"] = float64(traced.Memo.FastCopies)
	m["core.memo_hit_ratio"] = ratio(traced.Memo.Hits, traced.Memo.Hits+traced.Memo.Misses)
	m["faults.injected"] = float64(traced.Faults)

	batches := probeBatches
	if smoke {
		batches = 1
	}
	unit, err := runProbes(w.config(seed, smoke), batches)
	if err != nil {
		return res, err
	}
	for k, v := range unit {
		m[k] = v
	}
	return res, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
