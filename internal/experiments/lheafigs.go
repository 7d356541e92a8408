package experiments

import (
	"fmt"

	"sleds/internal/apps/fitsapp"
	"sleds/internal/fits"
)

// imageForSize picks FITS image dimensions whose file lands close to the
// requested size: width fixed at 1024 16-bit pixels per row (2 KiB), even
// heights so boxcar factors 4 and 16 divide cleanly.
func imageForSize(size int64) (fits.Image, error) {
	const width = 1024
	rowBytes := int64(width * 2)
	height := size / rowBytes
	height -= height % 4 // keep divisible by the 4x4 boxcar
	if height < 4 {
		height = 4
	}
	return fits.NewImage(width, int(height), 16)
}

// fimSweep drives one of the two LHEASOFT applications across the
// LHEASOFT size sweep in both modes and returns the [without, with]
// elapsed-time series. exp names the experiment for per-point seed
// derivation; runApp executes the application once against /data/img.fits,
// writing outPath.
func fimSweep(cfg Config, exp string, runApp func(m *Machine, useSLEDs bool, outPath string) error) ([]Series, error) {
	sizes := cfg.LHEASizes()
	points, err := RunGrid(cfg, []int{len(sizes), len(modeNames)}, func(cfg Config, at []int) (Point, error) {
		sizeIdx, mode := at[0], at[1]
		im, err := imageForSize(sizes[sizeIdx])
		if err != nil {
			return Point{}, err
		}
		m, err := BootMachine(cfg.forPoint(exp, sizeIdx, mode), ProfileLHEA)
		if err != nil {
			return Point{}, err
		}
		content := fits.NewContent(im, fileSeed(cfg, exp, sizeIdx), cfg.PageSize)
		if _, err := m.K.Create("/data/img.fits", m.Disk, content); err != nil {
			return Point{}, err
		}
		useSLEDs := mode == 1
		outN := 0
		elapsed, _, err := measured(cfg, m, func(int) error {
			outN++
			out := fmt.Sprintf("/data/out%03d.fits", outN)
			if err := runApp(m, useSLEDs, out); err != nil {
				return err
			}
			// The real tools are re-run over fresh output names; old
			// outputs are removed to keep the directory bounded. The
			// removal also drops the output's cached pages, as
			// deleting a file does.
			return m.K.Remove(out)
		})
		if err != nil {
			return Point{}, err
		}
		return pointFrom(mbOf(im.FileSize()), elapsed.Summarize()), nil
	})
	if err != nil {
		return nil, err
	}
	return columns(points, modeNames), nil
}

// Fig14 regenerates Figure 14: elapsed time for fimhisto on ext2, warm
// cache, with and without SLEDs.
func Fig14(cfg Config) (Figure, error) {
	const bins = 64
	s, err := fimSweep(cfg, "fimhisto", func(m *Machine, useSLEDs bool, outPath string) error {
		_, err := fitsapp.Fimhisto(m.Env(useSLEDs, cfg.BufSize), "/data/img.fits", outPath, bins, m.Disk)
		return err
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: "fig14", Title: "elapsed time for fimhisto, ext2, warm cache",
		XLabel: "size MB", YLabel: "seconds",
		Series: []Series{s[1], s[0]},
		Notes:  "three passes + one quarter writes: gains are attenuated relative to wc/grep, as in the paper",
	}, nil
}

// Fig15Factor regenerates Figure 15: elapsed time for fimgbin on ext2,
// warm cache, at the given data-reduction factor. The figure is the 4x
// run; the paper's text also quotes 16x numbers.
func Fig15Factor(cfg Config, factor int) (Figure, error) {
	s, err := fimSweep(cfg, fmt.Sprintf("fimgbin-x%d", factor), func(m *Machine, useSLEDs bool, outPath string) error {
		_, err := fitsapp.Fimgbin(m.Env(useSLEDs, cfg.BufSize), "/data/img.fits", outPath, factor, m.Disk)
		return err
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     fmt.Sprintf("fig15(x%d)", factor),
		Title:  fmt.Sprintf("elapsed time for fimgbin, ext2, warm cache, %dx data reduction", factor),
		XLabel: "size MB", YLabel: "seconds",
		Series: []Series{s[1], s[0]},
		Notes:  "write traffic erodes the gain at low reduction factors (paper: ~11% at 4x, 25-35% at 16x)",
	}, nil
}
