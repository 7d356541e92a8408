// Package fitsapp holds the two LHEASOFT members the paper adapted
// (§4.3, §5.3): fimhisto, which copies a FITS image and appends a
// histogram of its pixel values, and fimgbin, which rebins an image with a
// rectangular boxcar filter.
//
// Both are implemented twice over: a conventional sequential code path,
// and a SLEDs path using the element-oriented (ff*) pick library so that
// 16-bit pixels are never split across advised reads. fimhisto keeps the
// paper's three-pass structure, which is precisely what produces the
// Figure 3 cache pathology its measurements exploit.
package fitsapp

import (
	"errors"
	"fmt"
	"io"

	"sleds/internal/apps/appenv"
	"sleds/internal/device"
	"sleds/internal/fits"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
)

// Modelled CPU rates. The LHEASOFT codes do data format conversion
// (int16 -> float) on every pass, making them markedly heavier per byte
// than wc/grep; the SLEDs variants add element bookkeeping.
const (
	copyRate       = 40 * float64(1<<20)
	convertRate    = 14 * float64(1<<20)
	binRate        = 16 * float64(1<<20)
	chunkOverhead  = 30 * simclock.Microsecond
	defaultBufSize = 64 << 10
	elementSize    = 2 // bytes per 16-bit pixel: no read may split one
)

// Histogram is fimhisto's product.
type Histogram struct {
	Min, Max int16
	Bins     []int64
}

// Total returns the number of binned pixels.
func (h Histogram) Total() int64 {
	var t int64
	for _, b := range h.Bins {
		t += b
	}
	return t
}

// readBuffer allocates the read buffer one application run shares among
// its passes: env.BufSize (or the default) rounded down to whole elements,
// at least one, so neither read order splits a pixel.
func readBuffer(env *appenv.Env) []byte {
	bufSize := env.BufSize
	if bufSize <= 0 {
		bufSize = defaultBufSize
	}
	return make([]byte, max(bufSize-bufSize%elementSize, elementSize))
}

// forEachChunk drives either the sequential or the SLEDs read loop over
// buf, invoking fn with each chunk's file offset and bytes. The SLEDs path
// uses element mode so chunks are pixel-aligned.
func forEachChunk(env *appenv.Env, f *vfs.File, buf []byte, fn func(off int64, data []byte) error) error {
	if env.UseSLEDs {
		picker, err := sledlib.PickInit(env.K, env.Table, f, sledlib.Options{
			BufSize:     int64(len(buf)),
			ElementSize: elementSize,
		})
		if err != nil {
			return err
		}
		defer picker.Finish()
		for {
			off, n, err := picker.NextRead() // n <= BufSize
			if errors.Is(err, sledlib.ErrFinished) {
				return nil
			}
			if err != nil {
				return err
			}
			if _, err := f.ReadAt(buf[:n], off); err != nil && err != io.EOF {
				return err
			}
			env.ChargeCPU(chunkOverhead)
			if err := fn(off, buf[:n]); err != nil {
				return err
			}
		}
	}
	var off int64
	for {
		n, err := f.ReadAt(buf, off)
		if n > 0 {
			if err2 := fn(off, buf[:n]); err2 != nil {
				return err2
			}
			off += int64(n)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// pixels returns the part of chunk [off, off+len(data)) that lies in the
// data unit, and the index of its first pixel; nil for a chunk wholly in
// the header or the padding.
func pixels(im fits.Image, off int64, data []byte) (px []byte, idx int64) {
	lo := max(off, im.DataOffset)
	hi := min(off+int64(len(data)), im.DataOffset+im.DataBytes)
	if lo >= hi {
		return nil, 0
	}
	return data[lo-off : hi-off], (lo - im.DataOffset) / elementSize
}

// pixel16 is fits.Pixel16 on two bytes already in hand: the per-pixel loops
// build no slice.
func pixel16(hi, lo byte) int16 { return int16(uint16(hi)<<8 | uint16(lo)) }

// binTable maps value-min to its bin for every value in [min, max], so
// that binning a pixel is a lookup instead of a division.
func binTable(min, max int16, bins int) []int {
	span := int64(max) - int64(min) + 1
	table := make([]int, span)
	for d := range table {
		table[d] = int(int64(d) * int64(bins) / span)
	}
	return table
}

// binPixels counts the pixels of px into counts through table.
//
//sledlint:hotpath
func binPixels(counts []int64, table []int, min int16, px []byte) {
	for i := 0; i+1 < len(px); i += 2 {
		v := pixel16(px[i], px[i+1])
		counts[table[int(v)-int(min)]]++
	}
}

// Fimhisto copies the image at inPath to outPath and appends a histogram
// of the pixel values with the given number of bins. It returns the
// histogram. The three passes mirror the original: (1) copy the file,
// (2) scan with format conversion to find the value range, (3) bin the
// values and append the histogram to the output.
func Fimhisto(env *appenv.Env, inPath, outPath string, bins int, outDev device.ID) (Histogram, error) {
	if bins <= 0 {
		return Histogram{}, fmt.Errorf("fitsapp: bad bin count %d", bins)
	}
	in, err := env.K.Open(inPath)
	if err != nil {
		return Histogram{}, err
	}
	defer in.Close()
	im, err := fits.ParseHeader(in)
	if err != nil {
		return Histogram{}, err
	}

	if _, err := env.K.CreateEmpty(outPath, outDev); err != nil {
		return Histogram{}, err
	}
	out, err := env.K.Open(outPath)
	if err != nil {
		return Histogram{}, err
	}
	defer out.Close()

	// Pass 1: copy the main data unit (header + pixels) verbatim.
	buf := readBuffer(env)
	err = forEachChunk(env, in, buf, func(off int64, data []byte) error {
		env.ChargeCPUBytes(int64(len(data)), copyRate)
		_, werr := out.WriteAt(data, off)
		return werr
	})
	if err != nil {
		return Histogram{}, err
	}

	// Pass 2: find the pixel value range (with int16 -> float conversion,
	// charged at the conversion rate).
	min, max := int16(32767), int16(-32768)
	err = forEachChunk(env, in, buf, func(off int64, data []byte) error {
		px, _ := pixels(im, off, data)
		env.ChargeCPUBytes(int64(len(px)), convertRate)
		for i := 0; i+1 < len(px); i += 2 {
			v := pixel16(px[i], px[i+1])
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return nil
	})
	if err != nil {
		return Histogram{}, err
	}
	if min > max {
		return Histogram{}, fmt.Errorf("fitsapp: image %q has no pixels", inPath)
	}

	// Pass 3: bin the pixel values.
	h := Histogram{Min: min, Max: max, Bins: make([]int64, bins)}
	table := binTable(min, max, bins)
	err = forEachChunk(env, in, buf, func(off int64, data []byte) error {
		px, _ := pixels(im, off, data)
		env.ChargeCPUBytes(int64(len(px)), binRate)
		binPixels(h.Bins, table, min, px)
		return nil
	})
	if err != nil {
		return Histogram{}, err
	}

	// Append the histogram as an extra block-aligned unit and flush.
	if err := appendHistogram(out, im, h); err != nil {
		return Histogram{}, err
	}
	if err := out.Sync(); err != nil {
		return Histogram{}, err
	}
	return h, nil
}

// appendHistogram writes the histogram after the image's padded data unit:
// a one-block marker header followed by big-endian int64 bin counts.
func appendHistogram(out *vfs.File, im fits.Image, h Histogram) error {
	header := fits.EncodeHeader([]fits.Card{
		{Key: "XTENSION", Value: "'HISTGRAM'", Comment: "appended by fimhisto"},
		{Key: "NBINS", Value: fmt.Sprintf("%d", len(h.Bins)), Comment: "histogram bins"},
		{Key: "HMIN", Value: fmt.Sprintf("%d", h.Min)},
		{Key: "HMAX", Value: fmt.Sprintf("%d", h.Max)},
		{Key: "END"},
	})
	off := im.FileSize()
	if _, err := out.WriteAt(header, off); err != nil {
		return err
	}
	off += int64(len(header))
	buf := make([]byte, 8*len(h.Bins))
	for i, b := range h.Bins {
		putInt64(buf[i*8:], b)
	}
	_, err := out.WriteAt(buf, off)
	return err
}

func putInt64(b []byte, v int64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
