// Command slwc is the SLEDs-aware wc demo: it boots a simulated machine,
// creates a text file on the chosen file system, warms the cache with one
// pass, and then counts the file with and without SLEDs, reporting
// counts, virtual elapsed time, and hard page faults.
//
//	slwc -fs nfs -size 96 -cache 44        # paper-scale point
//	slwc -sleds=false                      # only the conventional run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sleds"
	"sleds/cmd/internal/demo"
	"sleds/internal/apps/appenv"
	"sleds/internal/apps/wcapp"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slwc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fsName := fs.String("fs", "ext2", "file system: ext2 | cdrom | nfs | tape")
	sizeMB := fs.Float64("size", 96, "file size in MB")
	cacheMB := fs.Float64("cache", 44, "file cache size in MB")
	seed := fs.Uint64("seed", 42, "content seed")
	both := fs.Bool("sleds", true, "also run the SLEDs-aware pass")
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
	sys, err := sleds.NewSystem(sleds.Config{CacheBytes: int64(*cacheMB * (1 << 20))})
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	const path = "/data/testfile"
	if err := sys.CreateTextFile(path, dev, *seed, int64(*sizeMB*(1<<20))); err != nil {
		return demo.Fail(fs, 1, err)
	}
	fmt.Fprintf(stdout, "wc on %s, %.4g MB file, %.4g MB cache, warm\n\n", *fsName, *sizeMB, *cacheMB)
	for _, useSLEDs := range []bool{false, true} {
		if useSLEDs && !*both {
			break
		}
		var res wcapp.Result
		mode, secs, err := demo.Timed(sys, path, useSLEDs, func(env *appenv.Env) (err error) {
			res, err = wcapp.Run(env, path)
			return err
		})
		if err != nil {
			return demo.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "%s  %9d lines %9d words %10d bytes   %8.3fs elapsed  %7d faults\n",
			mode, res.Lines, res.Words, res.Bytes, secs, sys.Stats().Faults)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
