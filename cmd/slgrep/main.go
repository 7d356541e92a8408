// Command slgrep is the SLEDs-aware grep demo: it plants a needle at a
// chosen position in a simulated file, warms the cache, and searches with
// and without SLEDs — optionally in -q (first match) mode, the paper's
// ideal case, where a cached match means no physical I/O at all.
//
//	slgrep -fs ext2 -size 96 -at 0.8 -q
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sleds"
	"sleds/cmd/internal/demo"
	"sleds/internal/apps/appenv"
	"sleds/internal/apps/grepapp"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slgrep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fsName := fs.String("fs", "ext2", "file system: ext2 | cdrom | nfs | tape")
	sizeMB := fs.Float64("size", 96, "file size in MB")
	cacheMB := fs.Float64("cache", 44, "file cache size in MB")
	at := fs.Float64("at", 0.8, "match position as a fraction of the file")
	firstOnly := fs.Bool("q", false, "stop at the first match (grep -q)")
	lineNumbers := fs.Bool("n", false, "report line numbers (grep -n)")
	seed := fs.Uint64("seed", 42, "content seed")
	if err := fs.Parse(args); err != nil {
		return demo.ParseExit(err)
	}
	dev, ok := sleds.DeviceNames[*fsName]
	if !ok {
		return demo.Fail(fs, 2, fmt.Errorf("unknown file system %q", *fsName))
	}
	if !(*cacheMB > 0) {
		return demo.Fail(fs, 2, fmt.Errorf("-cache %g: must be positive", *cacheMB))
	}
	if !(*at >= 0 && *at <= 1) {
		return demo.Fail(fs, 2, fmt.Errorf("-at %g: must be in [0, 1]", *at))
	}
	sys, err := sleds.NewSystem(sleds.Config{CacheBytes: int64(*cacheMB * (1 << 20))})
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	const path = "/data/testfile"
	size := int64(*sizeMB * (1 << 20))
	if err := sys.CreateTextFileWithMatches(path, dev, *seed, size,
		"xyzzy", int64(*at*float64(size))); err != nil {
		return demo.Fail(fs, 1, err)
	}
	fmt.Fprintf(stdout, "grep xyzzy on %s, %.4g MB file, match at %.0f%%, warm cache, q=%v\n\n",
		*fsName, *sizeMB, *at*100, *firstOnly)
	for _, useSLEDs := range []bool{false, true} {
		var matches []grepapp.Match
		mode, secs, err := demo.Timed(sys, path, useSLEDs, func(env *appenv.Env) (err error) {
			matches, err = grepapp.Run(env, path, "xyzzy",
				grepapp.Options{FirstOnly: *firstOnly, LineNumbers: *lineNumbers})
			return err
		})
		if err != nil {
			return demo.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "%s  %2d match(es)   %8.3fs elapsed  %7d faults\n",
			mode, len(matches), secs, sys.Stats().Faults)
		for _, m := range matches {
			if *lineNumbers {
				fmt.Fprintf(stdout, "    %d (offset %d): %q\n", m.LineNo, m.Offset, m.Line)
			} else {
				fmt.Fprintf(stdout, "    offset %d: %q\n", m.Offset, m.Line)
			}
		}
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
