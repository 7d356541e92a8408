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
	"encoding/binary"
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

// parseImage reads f's image header and checks that the data unit it
// describes fits in the file, before anything is sized from it.
func parseImage(f *vfs.File) (fits.Image, error) {
	im, err := fits.ParseHeader(f)
	if err == nil && im.DataOffset+im.DataBytes > f.Size() {
		err = fmt.Errorf("fitsapp: a %dx%d image does not fit in %d bytes", im.Width, im.Height, f.Size())
	}
	return im, err
}

// pixelRange widens [lo, hi] to take in the pixels of px, four per 8-byte
// load. Alternate pixels go to two pairs of accumulators, so that no
// min or max waits on the one before.
//
// BenchmarkFimhistoRange pins it at 0 allocs/op.
func pixelRange(px []byte, lo, hi int16) (int16, int16) {
	lo2, hi2 := lo, hi
	for ; len(px) >= 8; px = px[8:] {
		w := binary.BigEndian.Uint64(px)
		a, b, c, d := int16(w>>48), int16(w>>32), int16(w>>16), int16(w)
		lo, hi = min(lo, a, c), max(hi, a, c)
		lo2, hi2 = min(lo2, b, d), max(hi2, b, d)
	}
	for ; len(px) >= 2; px = px[2:] {
		lo, hi = min(lo, fits.Pixel16(px)), max(hi, fits.Pixel16(px))
	}
	return min(lo, lo2), max(hi, hi2)
}

// binTable maps value-min to its bin for every value in [min, max], so
// that binning a pixel is a lookup instead of a division.
func binTable(min, max int16, bins int) []uint16 {
	span := int64(max) - int64(min) + 1
	table := make([]uint16, span)
	for d := range table {
		table[d] = uint16(int64(d) * int64(bins) / span)
	}
	return table
}

// histLanes partial histograms take a word's four pixels, one each, so that
// a run of pixels in one bin does not make each count wait for the last.
const histLanes = 4

// binPixels counts the pixels of px, four per 8-byte load, through table
// into counts, histLanes partial histograms one after another. Offsets from
// min are taken modulo 2¹⁶: exact for every value in the table's range.
//
// BenchmarkFimhistoBin pins it at 0 allocs/op.
func binPixels(counts []int64, table []uint16, min int16, px []byte) {
	bins := len(counts) / histLanes
	c0, c1, c2, c3 := counts[:bins], counts[bins:2*bins], counts[2*bins:3*bins], counts[3*bins:]
	m := uint16(min)
	for ; len(px) >= 8; px = px[8:] {
		w := binary.BigEndian.Uint64(px)
		c0[table[uint16(w>>48)-m]]++
		c1[table[uint16(w>>32)-m]]++
		c2[table[uint16(w>>16)-m]]++
		c3[table[uint16(w)-m]]++
	}
	for ; len(px) >= 2; px = px[2:] {
		c0[table[binary.BigEndian.Uint16(px)-m]]++
	}
}

// Fimhisto copies the image at inPath to outPath, appends a histogram of
// its pixel values in the given number of bins and returns it; a bad bin
// count is an error before any file is opened. The three passes mirror the
// original: (1) copy the file, (2) scan with format conversion to find the
// value range, (3) bin the values and append the histogram to the output.
func Fimhisto(env *appenv.Env, inPath, outPath string, bins int, outDev device.ID) (Histogram, error) {
	if bins <= 0 || bins > 1<<16 { // one per int16 value at most: binTable's bins are uint16
		return Histogram{}, fmt.Errorf("fitsapp: bad bin count %d", bins)
	}
	in, err := env.K.Open(inPath)
	if err != nil {
		return Histogram{}, err
	}
	defer in.Close()
	im, err := parseImage(in)
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
	lo, hi := int16(32767), int16(-32768)
	err = forEachChunk(env, in, buf, func(off int64, data []byte) error {
		px, _ := pixels(im, off, data)
		env.ChargeCPUBytes(int64(len(px)), convertRate)
		lo, hi = pixelRange(px, lo, hi)
		return nil
	})
	if err != nil {
		return Histogram{}, err
	}
	if lo > hi {
		return Histogram{}, fmt.Errorf("fitsapp: image %q has no pixels", inPath)
	}

	// Pass 3: bin the pixel values.
	table, counts := binTable(lo, hi, bins), make([]int64, histLanes*bins)
	err = forEachChunk(env, in, buf, func(off int64, data []byte) error {
		px, _ := pixels(im, off, data)
		env.ChargeCPUBytes(int64(len(px)), binRate)
		binPixels(counts, table, lo, px)
		return nil
	})
	if err != nil {
		return Histogram{}, err
	}
	h := Histogram{Min: lo, Max: hi, Bins: make([]int64, bins)}
	for i, n := range counts {
		h.Bins[i%bins] += n
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
		binary.BigEndian.PutUint64(buf[i*8:], uint64(b))
	}
	_, err := out.WriteAt(buf, off)
	return err
}
