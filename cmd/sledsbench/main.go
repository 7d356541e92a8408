// Command sledsbench regenerates the paper's evaluation — every table
// and figure — plus the extension experiments and ablations; -list
// prints every experiment id (the knownExps slice below is the one list
// that -list, the -exp usage text and the unknown-id error all read).
//
// Usage:
//
//	sledsbench                  # everything in "all", paper-scale configuration
//	sledsbench -scale quick     # ~16x smaller, same shapes, seconds to run
//	sledsbench -exp f7,f8       # selected experiments only
//	sledsbench -list            # valid -exp ids, -faults profiles, -classes
//	sledsbench -runs 6          # override runs per point
//	sledsbench -workers 8       # parallel experiment points (0 = GOMAXPROCS)
//
// Output is the text rendering of each table/figure; EXPERIMENTS.md is
// produced from this output. Tables and figures go to stdout and are
// byte-identical at any -workers value; per-experiment host-time
// reporting goes to stderr so stdout stays diffable across runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"sleds/internal/experiments"
	"sleds/internal/faults"
	"sleds/internal/trace"
)

// startProfiles starts the host-side pprof collectors selected by the
// -cpuprofile/-memprofile flags; the returned stop function (idempotent)
// finishes them. Profiles measure the regeneration's own host CPU and
// heap — wall-clock diagnostics, which cmd/ is allowed to touch — and all
// notes go to stderr so stdout stays diffable.
func startProfiles(cpu, mem string) func() {
	cpuStarted := false
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuStarted = true
		fmt.Fprintf(os.Stderr, "(host CPU profile -> %s)\n", cpu)
	}
	return func() {
		if cpuStarted {
			pprof.StopCPUProfile()
			cpuStarted = false
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sledsbench: -memprofile: %v\n", err)
				mem = ""
				return
			}
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sledsbench: -memprofile: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "(host heap profile -> %s)\n", mem)
			}
			f.Close()
			mem = ""
		}
	}
}

// knownExps lists every selectable experiment id, plus the "all" and
// "ablations" group selectors ("all" leaves out escale, etrace and
// efleet). Unknown ids are an error (exit 2), not a silently empty run.
var knownExps = []string{
	"all", "ablations",
	"t2", "t3", "t4", "f3",
	"f7", "f8", "f9", "f10", "f11", "f12", "f13", "f14", "f15", "f15x16",
	"efind", "egmc", "ehsm", "eremote", "ehints", "etreegrep", "eaccuracy",
	"econtend", "eloadsled", "efaults", "escale", "etrace", "efleet",
	"ablation-policy", "ablation-pickorder", "ablation-refresh",
	"ablation-readahead", "ablation-mmap", "ablation-zones",
}

// sortedExps returns knownExps in the order -list and the unknown-id
// error print them.
func sortedExps() []string {
	valid := append([]string(nil), knownExps...)
	sort.Strings(valid)
	return valid
}

func main() {
	scale := flag.String("scale", "paper", "configuration scale: paper | quick")
	exps := flag.String("exp", "all", "comma-separated experiment ids: "+strings.Join(knownExps, ","))
	runs := flag.Int("runs", 0, "override measured runs per point (0 = configuration default)")
	workers := flag.Int("workers", 0, "experiment points run in parallel (0 = GOMAXPROCS); output is identical at any value")
	faultsProfile := flag.String("faults", "off", "deterministic fault-injection profile applied to every device of every machine: off | light | heavy")
	classesFlag := flag.String("classes", "", "comma-separated workload classes for the etrace experiment (empty = all): "+strings.Join(trace.Classes(), ","))
	fleetFlag := flag.Int("fleet", 0, "replica count for the efleet experiment (0 = default 4)")
	csvDir := flag.String("csv", "", "also write each figure as <dir>/<id>.csv for external plotting")
	list := flag.Bool("list", false, "print the valid experiment ids, one per line, and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a host-side CPU profile of the regeneration to this file (pprof)")
	memprofile := flag.String("memprofile", "", "write a host-side heap profile to this file at exit (pprof)")
	flag.Parse()

	if *list {
		for _, id := range sortedExps() {
			fmt.Println(id)
		}
		// -faults profiles and -classes workload classes, prefixed so
		// scripts can tell them from experiment ids.
		for _, p := range faults.Profiles() {
			fmt.Println("faults:" + p)
		}
		for _, c := range trace.Classes() {
			fmt.Println("class:" + c)
		}
		return
	}

	// exit flushes the profiles before terminating, so a failed run still
	// yields usable diagnostics; os.Exit would skip them.
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	var cfg experiments.Config
	switch *scale {
	case "paper":
		cfg = experiments.PaperConfig()
	case "quick":
		cfg = experiments.QuickConfig()
	default:
		fmt.Fprintf(os.Stderr, "sledsbench: unknown scale %q\n", *scale)
		exit(2)
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	cfg.Workers = *workers
	if _, ok := faults.ProfileConfig(*faultsProfile, 0); !ok {
		fmt.Fprintf(os.Stderr, "sledsbench: unknown fault profile %q (valid: %s)\n",
			*faultsProfile, strings.Join(faults.Profiles(), ", "))
		exit(2)
	}
	if *faultsProfile != "off" {
		cfg.FaultProfile = *faultsProfile
	}
	// -classes is validated up front like -exp and -faults: an unknown
	// workload class is exit 2 with the valid names, not an empty run.
	knownClasses := map[string]bool{}
	for _, c := range trace.Classes() {
		knownClasses[c] = true
	}
	var traceClasses []string
	for _, c := range strings.Split(*classesFlag, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if !knownClasses[c] {
			fmt.Fprintf(os.Stderr, "sledsbench: unknown workload class %q (valid: %s)\n",
				c, strings.Join(trace.Classes(), ", "))
			exit(2)
		}
		traceClasses = append(traceClasses, c)
	}

	known := map[string]bool{}
	for _, id := range knownExps {
		known[id] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		id := strings.TrimSpace(e)
		if id == "" {
			continue
		}
		if !known[id] {
			fmt.Fprintf(os.Stderr, "sledsbench: unknown experiment id %q (valid: %s)\n",
				id, strings.Join(sortedExps(), ", "))
			exit(2)
		}
		want[id] = true
	}
	if len(want) == 0 {
		fmt.Fprintln(os.Stderr, "sledsbench: no experiments selected")
		exit(2)
	}
	all := want["all"]
	selected := func(id string) bool { return all || want[id] }

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: creating %s: %v\n", *csvDir, err)
			exit(1)
		}
	}
	writeCSV := func(f experiments.Figure) {
		if *csvDir == "" {
			return
		}
		name := strings.Map(func(r rune) rune {
			switch r {
			case '(', ')':
				return -1
			}
			return r
		}, f.ID)
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: writing %s: %v\n", path, err)
			exit(1)
		}
	}

	fmt.Printf("# SLEDs evaluation, scale=%s (cache %.3g MB, sizes %.3g..%.3g MB, %d runs/point)\n\n",
		*scale, float64(cfg.CacheBytes())/float64(experiments.MB),
		float64(cfg.Sizes[0])/float64(experiments.MB),
		float64(cfg.Sizes[len(cfg.Sizes)-1])/float64(experiments.MB), cfg.Runs)

	// hostTime reports wall-clock per experiment on stderr: diagnostic,
	// nondeterministic, and deliberately kept out of the diffable stdout.
	hostTime := func(id string, start time.Time) {
		fmt.Fprintf(os.Stderr, "(%s regenerated in %.1fs host time)\n", id, time.Since(start).Seconds())
	}

	run := func(id string, fn func() (string, error)) {
		if !selected(id) {
			return
		}
		start := time.Now()
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: %s: %v\n", id, err)
			exit(1)
		}
		fmt.Println(out)
		hostTime(id, start)
	}
	// runFig is run for an experiment that yields one Figure; the figure
	// reaches -csv only once the experiment has succeeded.
	runFig := func(id string, fn func(experiments.Config) (experiments.Figure, error)) {
		run(id, func() (string, error) {
			f, err := fn(cfg)
			if err != nil {
				return "", err
			}
			writeCSV(f)
			return f.Render(), nil
		})
	}

	run("t2", func() (string, error) {
		t, err := experiments.Table2(cfg)
		return t.Render(), err
	})
	run("t3", func() (string, error) {
		t, err := experiments.Table3(cfg)
		return t.Render(), err
	})
	run("t4", func() (string, error) {
		t, err := experiments.Table4()
		return t.Render(), err
	})
	run("f3", func() (string, error) { return experiments.Fig3Trace(), nil })

	// Figures 7 and 8 share one sweep; same for 11 and 12.
	if selected("f7") || selected("f8") {
		start := time.Now()
		f7, f8, err := experiments.Fig7And8(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: f7/f8: %v\n", err)
			exit(1)
		}
		if selected("f7") {
			writeCSV(f7)
			fmt.Println(f7.Render())
		}
		if selected("f8") {
			writeCSV(f8)
			fmt.Println(f8.Render())
		}
		hostTime("f7+f8", start)
	}
	runFig("f9", experiments.Fig9)
	runFig("f10", experiments.Fig10)
	if selected("f11") || selected("f12") {
		start := time.Now()
		f11, f12, err := experiments.Fig11And12(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: f11/f12: %v\n", err)
			exit(1)
		}
		if selected("f11") {
			writeCSV(f11)
			fmt.Println(f11.Render())
		}
		if selected("f12") {
			writeCSV(f12)
			fmt.Println(f12.Render())
		}
		hostTime("f11+f12", start)
	}
	runFig("f13", experiments.Fig13)
	runFig("f14", experiments.Fig14)
	runFig("f15", func(c experiments.Config) (experiments.Figure, error) { return experiments.Fig15Factor(c, 4) })
	runFig("f15x16", func(c experiments.Config) (experiments.Figure, error) { return experiments.Fig15Factor(c, 16) })
	run("efind", func() (string, error) {
		r, err := experiments.EFind(cfg)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "== efind: find -latency pruning (threshold %s) ==\n", r.Threshold)
		b.WriteString("cheap (worth reading now):\n")
		for _, f := range r.Cheap {
			fmt.Fprintf(&b, "  %-28s %10.4g s\n", f.Path, f.Seconds)
		}
		b.WriteString("expensive (pruned):\n")
		for _, f := range r.Expensive {
			fmt.Fprintf(&b, "  %-28s %10.4g s\n", f.Path, f.Seconds)
		}
		return b.String(), nil
	})
	run("egmc", func() (string, error) {
		r, err := experiments.EGmc(cfg)
		if err != nil {
			return "", err
		}
		return "== egmc: gmc file-properties SLEDs panel (half-cached file) ==\n" + r.Render(), nil
	})
	run("ehsm", func() (string, error) {
		r, err := experiments.EHSM(cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("== ehsm: grep -q on HSM (staged tail) ==\nwithout SLEDs: %8.4g s\nwith SLEDs:    %8.4g s\nspeedup:       %8.4g x\n",
			r.WithoutSeconds, r.WithSeconds, r.Speedup), nil
	})
	run("eremote", func() (string, error) {
		r, err := experiments.ERemote(cfg)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("== eremote: grep -q on a remote file, server-cached tail ==\nwithout SLEDs: %8.4g s\nwith SLEDs:    %8.4g s\nspeedup:       %8.4g x\n",
			r.WithoutSeconds, r.WithSeconds, r.Speedup), nil
	})
	runFig("ehints", experiments.EHints)
	runFig("etreegrep", experiments.ETreeGrep)
	runFig("eaccuracy", experiments.EAccuracy)
	runFig("econtend", experiments.EContention)
	runFig("eloadsled", experiments.ELoadSLED)
	run("efaults", func() (string, error) {
		r, err := experiments.EFaults(cfg)
		if err != nil {
			return "", err
		}
		writeCSV(r.Figure)
		return r.Render(), nil
	})
	// escale measures the engine rather than the paper's claims, so it is
	// deliberately not part of "all" (the committed golden outputs never
	// include it); select it explicitly, as CI's scale-smoke target does.
	if want["escale"] {
		start := time.Now()
		f, err := experiments.EScale(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: escale: %v\n", err)
			exit(1)
		}
		writeCSV(f)
		fmt.Println(f.Render())
		hostTime("escale", start)
	}
	// etrace replays the internal/trace workload zoo over the queued-device
	// engine. Like escale it measures the extension layer rather than the
	// paper's claims, so it stays outside "all" (the committed goldens never
	// include it); select it explicitly, as CI's trace-smoke target does.
	if want["etrace"] {
		start := time.Now()
		r, err := experiments.ETrace(cfg, traceClasses...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: etrace: %v\n", err)
			exit(1)
		}
		fmt.Println(r.Render())
		hostTime("etrace", start)
	}
	// efleet drives the fleet tier (internal/fleet): SLED-guided replica
	// selection with hedging, failover, and degradation, against blind
	// round-robin, under three fleet scenarios. Like escale and etrace it
	// measures the extension layer rather than the paper's claims, so it
	// stays outside "all" (the committed goldens never include it); select
	// it explicitly, as CI's fleet-smoke target does.
	if want["efleet"] {
		start := time.Now()
		r, err := experiments.EFleet(cfg, *fleetFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: efleet: %v\n", err)
			exit(1)
		}
		fmt.Println(r.Render())
		hostTime("efleet", start)
	}
	for _, abl := range []struct {
		id string
		fn func(experiments.Config) (experiments.Figure, error)
	}{
		{"ablation-policy", experiments.AblationPolicy},
		{"ablation-pickorder", experiments.AblationPickOrder},
		{"ablation-refresh", experiments.AblationRefresh},
		{"ablation-readahead", experiments.AblationReadahead},
		{"ablation-mmap", experiments.AblationMmap},
		{"ablation-zones", experiments.AblationZones},
	} {
		if !selected(abl.id) && !want["ablations"] {
			continue
		}
		fn := abl.fn
		start := time.Now()
		f, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sledsbench: %s: %v\n", abl.id, err)
			exit(1)
		}
		writeCSV(f)
		fmt.Println(f.Render())
		hostTime(abl.id, start)
	}
	stopProfiles()
}
