package main

// metricSpec names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (sledsperf_test.go holds the two
// together); moves and on are the prediction written down before
// measuring, which BENCHMARK.json has no field for.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	Moves  string  `json:"moves,omitempty"` // the end-to-end metric it should move
	On     string  `json:"on,omitempty"`    // the workloads it should move it on
}

// endToEnd lists what a user regenerating an experiment pays. The bounds
// are what ten runs at ten seeds on the seed commit support (README.md,
// "Bounds"): host_s and setup_s are wall time on a shared two-core box,
// alloc_mb and mallocs_k vary only with the seed.
var endToEnd = []metricSpec{
	{Name: "host_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "mallocs_k", Unit: "thousands", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	contentWl = "scale, trace (wasted); figs, lhea (needed); not fleet"
	sameCount = "identical under a speed-up"
)

// perLayer lists the ledger, in the order it is printed.
var perLayer = []metricSpec{
	{Name: "workload.gen_s", Unit: "s", Better: "lower", Moves: "host_s", On: contentWl},
	{Name: "workload.gen_pages", Unit: "count", Better: "lower", Moves: "host_s", On: contentWl},
	{Name: "workload.gen_share", Unit: "ratio", Better: "lower", Moves: "host_s", On: contentWl},
	{Name: "workload.textgen_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs, scale, trace; not fleet"},
	{Name: "workload.fitsgen_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "lhea; not fleet"},
	{Name: "device.model_s", Unit: "s", Better: "lower", Moves: "host_s", On: "all, small"},
	{Name: "device.calls", Unit: "count", Better: "lower", Moves: sameCount, On: "all"},
	{Name: "apps.step_s", Unit: "s", Better: "lower", Moves: "host_s", On: "lhea, figs; not scale, fleet"},
	{Name: "apps.wc_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs"},
	{Name: "apps.grep_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs"},
	{Name: "apps.fimgbin_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "lhea"},
	{Name: "cache.hits", Unit: "count", Better: "higher", Moves: sameCount, On: "all but fleet"},
	{Name: "cache.misses", Unit: "count", Better: "lower", Moves: sameCount, On: "all but fleet"},
	{Name: "cache.inserts", Unit: "count", Better: "lower", Moves: sameCount, On: "all but fleet"},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Moves: sameCount, On: "all but fleet"},
	{Name: "cache.dirty_evictions", Unit: "count", Better: "lower", Moves: sameCount, On: "lhea, trace"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: sameCount, On: "all but fleet"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs, lhea; not fleet"},
	{Name: "cache.insert_evict_ns", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs, lhea; not fleet"},
	{Name: "vfs.faults", Unit: "count", Better: "lower", Moves: sameCount, On: "all but fleet"},
	{Name: "vfs.cache_hits", Unit: "count", Better: "higher", Moves: sameCount, On: "all but fleet"},
	{Name: "vfs.bytes_read", Unit: "count", Better: "lower", Moves: sameCount, On: "all but fleet"},
	{Name: "vfs.bytes_written", Unit: "count", Better: "lower", Moves: sameCount, On: "lhea, trace"},
	{Name: "vfs.pages_written_dev", Unit: "count", Better: "lower", Moves: sameCount, On: "lhea, trace"},
	{Name: "vfs.retries", Unit: "count", Better: "lower", Moves: sameCount, On: "none on the seed"},
	{Name: "vfs.eios", Unit: "count", Better: "lower", Moves: "the layer's failure count", On: "none on the seed"},
	{Name: "vfs.read_hit_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs"},
	{Name: "vfs.read_miss_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs"},
	{Name: "vfs.write_ns_page", Unit: "ns", Better: "lower", Moves: "host_s", On: "lhea"},
	{Name: "vfs.step_miss_allocs_page", Unit: "allocs", Better: "lower", Moves: "mallocs_k", On: "scale, trace; not fleet"},
	{Name: "vfs.step_miss_bytes_page", Unit: "B", Better: "lower", Moves: "alloc_mb", On: "scale, trace; not fleet"},
	{Name: "core.memo_hits", Unit: "count", Better: "higher", Moves: sameCount, On: "trace, fleet, figs; scale makes no query"},
	{Name: "core.memo_misses", Unit: "count", Better: "lower", Moves: sameCount, On: "trace, fleet, figs"},
	{Name: "core.memo_fast_copies", Unit: "count", Better: "higher", Moves: sameCount, On: "trace, fleet, figs"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "useful/attempted", On: "trace, fleet, figs"},
	{Name: "core.query_cold_ns", Unit: "ns", Better: "lower", Moves: "host_s", On: "fleet, trace; not scale, lhea"},
	{Name: "core.query_warm_ns", Unit: "ns", Better: "lower", Moves: "host_s", On: "fleet, trace; not scale, lhea"},
	{Name: "sledlib.pick_ns_chunk", Unit: "ns", Better: "lower", Moves: "host_s", On: "figs, lhea SLED modes; not scale, fleet"},
	{Name: "iosched.run_s", Unit: "s", Better: "lower", Moves: "host_s", On: "scale, trace, fleet; not figs, lhea"},
	{Name: "iosched.events", Unit: "count", Better: "lower", Moves: sameCount, On: "scale, trace, fleet"},
	{Name: "iosched.ns_per_event", Unit: "ns", Better: "lower", Moves: "host_s", On: "scale, trace, fleet"},
	{Name: "iosched.event_ns_n1k", Unit: "ns", Better: "lower", Moves: "host_s", On: "scale, fleet; not figs"},
	{Name: "iosched.event_ns_n10k", Unit: "ns", Better: "lower", Moves: "host_s", On: "scale, fleet; not figs"},
	{Name: "iosched.event_ratio_10k_1k", Unit: "ratio", Better: "lower", Moves: "host_s", On: "scale"},
	{Name: "trace.generate_ns_record", Unit: "ns", Better: "lower", Moves: "host_s", On: "trace"},
	{Name: "trace.compile_ns_record", Unit: "ns", Better: "lower", Moves: "host_s", On: "trace"},
	{Name: "fleet.select_ns", Unit: "ns", Better: "lower", Moves: "host_s", On: "fleet"},
	{Name: "faults.injected", Unit: "count", Better: "lower", Moves: sameCount, On: "fleet"},
	{Name: "lmbench.calibrate_ms", Unit: "ms", Better: "lower", Moves: "host_s", On: "figs, lhea (once per grid point); not fleet"},
	{Name: "experiments.boot_ms", Unit: "ms", Better: "lower", Moves: "host_s", On: "figs, lhea (once per grid point); not fleet"},
	{Name: "experiments.fig8_speedup_peak", Unit: "ratio", Better: "higher", Moves: sameCount, On: "figs"},
	{Name: "experiments.fig9_fault_reduction", Unit: "ratio", Better: "higher", Moves: sameCount, On: "figs"},
	{Name: "experiments.etrace_olap_speedup", Unit: "ratio", Better: "higher", Moves: sameCount, On: "trace"},
	{Name: "experiments.sim_drift", Unit: "0/1", Better: "lower", Moves: "a behaviour fix may move it, a speed-up may not", On: "all"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "host_s via alloc_mb", On: "scale, trace"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "host_s via alloc_mb", On: "scale, trace"},
	{Name: "runtime.rss_peak_mb", Unit: "MB", Better: "lower", Moves: "host_s via alloc_mb", On: "scale, trace"},
	{Name: "tracing.overhead_pct", Unit: "%", Better: "lower", Moves: "nothing: traced vs untraced run of the rebuilt point", On: "all"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// valuesOf pairs measured numbers with their specs; a metric nothing
// measured on this workload reads 0.
func valuesOf(specs []metricSpec, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		out[s.Name] = value{Value: measured[s.Name], Unit: s.Unit}
	}
	return out
}
