// Command fimhisto runs the ported LHEASOFT fimhisto on a synthetic FITS
// image: it copies the image, appends a histogram of its pixel values,
// and reports elapsed virtual time and page faults with and without
// SLEDs — the paper's §5.3 experiment at one point.
//
//	fimhisto -width 1024 -height 24576 -bins 64   # ~48 MB image
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"sleds"
	"sleds/cmd/internal/demo"
	"sleds/internal/apps/appenv"
	"sleds/internal/apps/fitsapp"
	"sleds/internal/vfs"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fimhisto", flag.ContinueOnError)
	fs.SetOutput(stderr)
	width := fs.Int("width", 1024, "image width in pixels")
	height := fs.Int("height", 24576, "image height in pixels")
	bins := fs.Int("bins", 64, "histogram bins")
	cacheMB := fs.Float64("cache", 44, "file cache size in MB")
	if err := fs.Parse(args); err != nil {
		return demo.ParseExit(err)
	}
	if !(*cacheMB > 0) {
		return demo.Fail(fs, 2, fmt.Errorf("-cache %g: must be positive", *cacheMB))
	}
	sys, err := sleds.NewSystem(sleds.Config{
		CacheBytes:  int64(*cacheMB * (1 << 20)),
		LHEAProfile: true,
	})
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	// Fimhisto checks -bins by fitsapp's own rule before it opens a file:
	// asked about a path that names none, it fails with ErrNotExist exactly
	// when the count is good.
	if _, err := fitsapp.Fimhisto(sys.Env(false), "/none", "/none", *bins, sys.Device(sleds.OnDisk)); !errors.Is(err, vfs.ErrNotExist) {
		return demo.Fail(fs, 2, err)
	}
	const img = "/data/img.fits"
	if err := sys.CreateFITSImage(img, sleds.OnDisk, 7, *width, *height); err != nil {
		return demo.Fail(fs, 1, err)
	}
	n, err := sys.Stat(img)
	if err != nil {
		return demo.Fail(fs, 1, err)
	}
	fmt.Fprintf(stdout, "fimhisto on %dx%d image (%.4g MB), %d bins, %.4g MB cache\n\n",
		*width, *height, float64(n.Size())/(1<<20), *bins, *cacheMB)
	for i, useSLEDs := range []bool{false, true} {
		var h fitsapp.Histogram
		mode, secs, err := demo.Timed(sys, img, useSLEDs, func(env *appenv.Env) (err error) {
			h, err = fitsapp.Fimhisto(env, img, fmt.Sprintf("/data/out%d.fits", i), *bins, sys.Device(sleds.OnDisk))
			return err
		})
		if err != nil {
			return demo.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "%s  %8.3fs elapsed  %7d faults   (range [%d,%d], %d pixels binned)\n",
			mode, secs, sys.Stats().Faults, h.Min, h.Max, h.Total())
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
