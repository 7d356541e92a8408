// Command fimgbin runs the ported LHEASOFT fimgbin on a synthetic FITS
// image: a rectangular boxcar rebin with a selectable data reduction
// factor, timed with and without SLEDs. The paper's observation — the
// write traffic of low reduction factors erodes the SLEDs gain — is
// visible by comparing -factor 4 against -factor 16.
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
	"sleds/internal/fits"
	"sleds/internal/vfs"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fimgbin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	width := fs.Int("width", 1024, "image width in pixels")
	height := fs.Int("height", 24576, "image height in pixels")
	factor := fs.Int("factor", 4, "data reduction factor (4 or 16)")
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
	// Fimgbin checks -factor by fitsapp's own rule before it opens a file:
	// asked about a path that names none, it fails with ErrNotExist exactly
	// when the factor is good.
	if _, err := fitsapp.Fimgbin(sys.Env(false), "/none", "/none", *factor, sys.Device(sleds.OnDisk)); !errors.Is(err, vfs.ErrNotExist) {
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
	fmt.Fprintf(stdout, "fimgbin on %dx%d image (%.4g MB), %dx reduction, %.4g MB cache\n\n",
		*width, *height, float64(n.Size())/(1<<20), *factor, *cacheMB)
	for i, useSLEDs := range []bool{false, true} {
		var out fits.Image
		mode, secs, err := demo.Timed(sys, img, useSLEDs, func(env *appenv.Env) (err error) {
			out, err = fitsapp.Fimgbin(env, img, fmt.Sprintf("/data/out%d.fits", i), *factor, sys.Device(sleds.OnDisk))
			return err
		})
		if err != nil {
			return demo.Fail(fs, 1, err)
		}
		fmt.Fprintf(stdout, "%s  %8.3fs elapsed  %7d faults   (output %dx%d)\n",
			mode, secs, sys.Stats().Faults, out.Width, out.Height)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
