// Command sledsbench regenerates the paper's evaluation — every table
// and figure — plus the extension experiments and ablations. It is flag
// parsing and one loop: what an id means, what "all" and "ablations"
// select, the print order and each sweep's renderer are declared once, in
// the registry of internal/experiments, which -list, the -exp usage text
// and the unknown-id error read too.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"sleds/internal/experiments"
	"sleds/internal/faults"
	"sleds/internal/trace"
)

// startProfiles starts the host-side pprof collectors selected by the
// -cpuprofile/-memprofile flags; the returned stop function finishes them.
// Profiles measure the regeneration's own host CPU and heap — wall-clock
// diagnostics, which cmd/ is allowed to touch — and all notes go to stderr
// so stdout stays diffable.
func startProfiles(cpu, mem string, stderr io.Writer) (stop func(), err error) {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %v", err)
		}
		fmt.Fprintf(stderr, "(host CPU profile -> %s)\n", cpu)
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintf(stderr, "sledsbench: -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialise the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "sledsbench: -memprofile: %v\n", err)
			return
		}
		fmt.Fprintf(stderr, "(host heap profile -> %s)\n", mem)
	}, nil
}

// run is main with its environment passed in: the arguments after the
// program name, the two output streams, and the exit code returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sledsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "paper", "configuration scale: paper | quick")
	exps := fs.String("exp", experiments.SelectAll, "comma-separated experiment ids: "+strings.Join(experiments.IDs(), ","))
	runs := fs.Int("runs", 0, "override measured runs per point (0 = configuration default)")
	workers := fs.Int("workers", 0, "experiment points run in parallel (0 = GOMAXPROCS); output is identical at any value")
	faultsProfile := fs.String("faults", "off", "deterministic fault-injection profile applied to every device of every machine: off | light | heavy")
	classesFlag := fs.String("classes", "", "comma-separated workload classes for the etrace experiment (empty = all): "+strings.Join(trace.Classes(), ","))
	fleetFlag := fs.Int("fleet", 0, "replica count for the efleet experiment (0 = default 4)")
	csvDir := fs.String("csv", "", "also write each figure as <dir>/<id>.csv for external plotting")
	list := fs.Bool("list", false, "print the valid experiment ids, one per line, and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a host-side CPU profile of the regeneration to this file (pprof)")
	memprofile := fs.String("memprofile", "", "write a host-side heap profile to this file at exit (pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "sledsbench: "+format+"\n", a...)
		return code
	}
	for _, name := range []string{"runs", "workers", "fleet"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			return fail(2, "-%s %d: must not be negative", name, v)
		}
	}

	if *list {
		ids := experiments.IDs()
		slices.Sort(ids)
		for _, id := range ids {
			fmt.Fprintln(stdout, id)
		}
		// -faults profiles and -classes workload classes, prefixed so
		// scripts can tell them from experiment ids.
		for _, p := range faults.Profiles() {
			fmt.Fprintln(stdout, "faults:"+p)
		}
		for _, c := range trace.Classes() {
			fmt.Fprintln(stdout, "class:"+c)
		}
		return 0
	}

	var cfg experiments.Config
	switch *scale {
	case "paper":
		cfg = experiments.PaperConfig()
	case "quick":
		cfg = experiments.QuickConfig()
	default:
		return fail(2, "unknown scale %q", *scale)
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	cfg.Workers = *workers
	if _, ok := faults.ProfileConfig(*faultsProfile, 0); !ok {
		return fail(2, "unknown fault profile %q (valid: %s)", *faultsProfile, strings.Join(faults.Profiles(), ", "))
	}
	if *faultsProfile != "off" {
		cfg.FaultProfile = *faultsProfile
	}
	// -classes is validated up front like -exp and -faults: an unknown
	// workload class is exit 2 with the valid names, not an empty run.
	var traceClasses []string
	for _, c := range strings.Split(*classesFlag, ",") {
		if c = strings.TrimSpace(c); c == "" {
			continue
		}
		if !slices.Contains(trace.Classes(), c) {
			return fail(2, "unknown workload class %q (valid: %s)", c, strings.Join(trace.Classes(), ", "))
		}
		traceClasses = append(traceClasses, c)
	}
	selected, wanted, err := experiments.Select(*exps)
	if err != nil {
		return fail(2, "%v", err)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(1, "creating %s: %v", *csvDir, err)
		}
	}

	// A failed run still yields usable profiles: they stop on every return.
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		return fail(2, "%v", err)
	}
	defer stopProfiles()

	fmt.Fprintf(stdout, "# SLEDs evaluation, scale=%s (cache %.3g MB, sizes %.3g..%.3g MB, %d runs/point)\n\n",
		*scale, float64(cfg.CacheBytes())/float64(experiments.MB),
		float64(cfg.Sizes[0])/float64(experiments.MB),
		float64(cfg.Sizes[len(cfg.Sizes)-1])/float64(experiments.MB), cfg.Runs)

	for _, e := range selected {
		start := time.Now()
		arts, err := e.Run(cfg, traceClasses, *fleetFlag)
		if err != nil {
			return fail(1, "%s: %v", strings.Join(e.IDs, "/"), err)
		}
		for _, a := range arts {
			if !wanted[a.ID] {
				continue
			}
			// The figure reaches -csv only once its sweep has succeeded.
			if a.Figure != nil && *csvDir != "" {
				name := strings.NewReplacer("(", "", ")", "").Replace(a.Figure.ID)
				path := filepath.Join(*csvDir, name+".csv")
				if err := os.WriteFile(path, []byte(a.Figure.CSV()), 0o644); err != nil {
					return fail(1, "writing %s: %v", path, err)
				}
			}
			fmt.Fprintln(stdout, a.Text)
		}
		// Wall-clock per sweep goes to stderr: diagnostic, nondeterministic,
		// and deliberately kept out of the diffable stdout.
		fmt.Fprintf(stderr, "(%s regenerated in %.1fs host time)\n", strings.Join(e.IDs, "+"), time.Since(start).Seconds())
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
