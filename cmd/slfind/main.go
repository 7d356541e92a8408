// Command slfind demonstrates the SLEDs-aware find: it builds a directory
// tree spanning disk, NFS and the tape library, warms one file, and
// applies the paper's -latency predicate syntax to select files by
// estimated retrieval time — the prune-I/O use of SLEDs.
//
//	slfind -latency +1       # files needing more than one second
//	slfind -latency -m50     # files under 50 ms (cached data)
//	slfind -name '*.dat'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sleds"
	"sleds/cmd/internal/demo"
	"sleds/internal/apps/findapp"
	"sleds/internal/apps/grepapp"
	"sleds/internal/core"
	"sleds/internal/sledlib"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	latency := fs.String("latency", "", "latency predicate: [+-]?[mMuU]?n (paper syntax)")
	name := fs.String("name", "", "glob on the base name")
	execGrep := fs.String("exec-grep", "", "run the SLEDs grep for this pattern over each selected file, cheapest file first (the paper's find -exec grep anecdote)")
	if err := fs.Parse(args); err != nil {
		return demo.ParseExit(err)
	}
	opts := findapp.Options{NamePattern: *name, Plan: core.PlanLinear, FilesOnly: true}
	if *latency != "" {
		pred, err := findapp.ParseLatencyPredicate(*latency)
		if err != nil {
			return demo.Fail(fs, 2, err)
		}
		opts.Latency = &pred
	}
	sys, err := sleds.NewSystem(sleds.Config{CacheBytes: 8 << 20})
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	for _, d := range []string{"/data/src", "/data/archive"} {
		if err := sys.MkdirAll(d); err != nil {
			return demo.Fail(fs, 1, err)
		}
	}
	files := []struct {
		path string
		dev  sleds.StandardDevice
		mb   int64
	}{
		{"/data/src/hot.c", sleds.OnDisk, 2},
		{"/data/src/cold.c", sleds.OnDisk, 2},
		{"/data/src/remote.c", sleds.OnNFS, 2},
		{"/data/archive/run1.dat", sleds.OnTape, 16},
		{"/data/archive/run2.dat", sleds.OnTape, 16},
	}
	for i, f := range files {
		if err := sys.CreateTextFile(f.path, f.dev, uint64(i+1), f.mb<<20); err != nil {
			return demo.Fail(fs, 1, err)
		}
	}
	// Warm hot.c so its estimate reflects the cache.
	if err := demo.Warm(sys, "/data/src/hot.c", 0); err != nil {
		return demo.Fail(fs, 1, err)
	}
	results, err := findapp.Run(sys.Env(true), "/data", opts)
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	summary := ""
	if *name != "" {
		summary += " -name " + *name
	}
	if *latency != "" {
		summary += " -latency " + *latency
	}
	fmt.Fprintf(stdout, "find /data%s: %d file(s)\n", summary, len(results))
	for _, r := range results {
		if opts.Latency != nil {
			fmt.Fprintf(stdout, "  %-28s estimated %10.4g s\n", r.Path, r.Seconds)
		} else {
			fmt.Fprintf(stdout, "  %s\n", r.Path)
		}
	}
	if *execGrep != "" {
		// The selected files are visited cheapest first (file-set order),
		// each searched with the SLEDs grep — the combination §5.2
		// motivates with "the SLEDs-aware find allows him to search cache
		// first, then higher latency data only as needed."
		paths := make([]string, 0, len(results))
		for _, r := range results {
			paths = append(paths, r.Path)
		}
		ordered, est := sledlib.FileSetOrder(sys.Kernel(), sys.Table(), paths, core.PlanBest)
		fmt.Fprintf(stdout, "\nexec grep %q, cheapest first:\n", *execGrep)
		for i, p := range ordered {
			matches, err := grepapp.Run(sys.Env(true), p, *execGrep, grepapp.Options{})
			if err != nil {
				return demo.Fail(fs, 1, err)
			}
			fmt.Fprintf(stdout, "  %-28s (est %8.4g s) %d match(es)\n", p, est[i], len(matches))
		}
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
