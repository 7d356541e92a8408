// Command slstat prints the gmc file-properties SLEDs panel for a staged
// scenario: a file whose tail has just been read, so the panel shows the
// cheap cached section, the expensive device section, and the estimated
// total delivery time — the report-latency use of SLEDs.
//
//	slstat -fs nfs -size 24 -warm 0.5 (panel for a half-warmed file)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sleds"
	"sleds/cmd/internal/demo"
	"sleds/internal/apps/gmcapp"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fsName := fs.String("fs", "ext2", "file system: ext2 | cdrom | nfs | tape")
	sizeMB := fs.Float64("size", 24, "file size in MB")
	warm := fs.Float64("warm", 0.5, "fraction of the file tail to warm into cache")
	if err := fs.Parse(args); err != nil {
		return demo.ParseExit(err)
	}
	dev, ok := sleds.DeviceNames[*fsName]
	if !ok {
		return demo.Fail(fs, 2, fmt.Errorf("unknown file system %q", *fsName))
	}
	if !(*warm >= 0 && *warm <= 1) {
		return demo.Fail(fs, 2, fmt.Errorf("-warm %g: must be in [0, 1]", *warm))
	}
	sys, err := sleds.NewSystem(sleds.Config{CacheBytes: 44 << 20})
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	const path = "/data/testfile"
	size := int64(*sizeMB * (1 << 20))
	if err := sys.CreateTextFile(path, dev, 42, size); err != nil {
		return demo.Fail(fs, 1, err)
	}
	if err := demo.Warm(sys, path, size-int64(*warm*float64(size))); err != nil {
		return demo.Fail(fs, 1, err)
	}
	r, err := gmcapp.Properties(sys.Env(true), path)
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	fmt.Fprint(stdout, r.Render())
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
