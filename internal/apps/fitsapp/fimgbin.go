package fitsapp

import (
	"encoding/binary"
	"fmt"

	"sleds/internal/apps/appenv"
	"sleds/internal/device"
	"sleds/internal/fits"
)

// Fimgbin rebins the image at inPath with a rectangular boxcar filter into
// outPath. factor is the data reduction factor (4 or 16 in the paper): the
// boxcar is sqrt(factor) on a side. A factor that is not the square of a
// side in [2, maxSide] is an error before any file is opened.
//
// The rebinning is order-independent — each pixel contributes to exactly
// one output accumulator — which is what makes the SLEDs reordered read
// schedule applicable. The output is written at the end, after all input
// has been consumed; its write traffic (dirty pages pushed through the
// same buffer cache) is what erodes part of the SLEDs gain at low
// reduction factors, as the paper observes.
func Fimgbin(env *appenv.Env, inPath, outPath string, factor int, outDev device.ID) (fits.Image, error) {
	side := 0
	for s := 2; s <= maxSide && s*s <= factor; s++ {
		if s*s == factor {
			side = s
		}
	}
	if side == 0 {
		return fits.Image{}, fmt.Errorf("fitsapp: reduction factor %d is not the square of a side in [2, %d]", factor, maxSide)
	}

	in, err := env.K.Open(inPath)
	if err != nil {
		return fits.Image{}, err
	}
	defer in.Close()
	im, err := parseImage(in)
	if err != nil {
		return fits.Image{}, err
	}
	if im.Width%side != 0 || im.Height%side != 0 {
		return fits.Image{}, fmt.Errorf("fitsapp: image %dx%d not divisible by boxcar %d",
			im.Width, im.Height, side)
	}

	outW, outH := im.Width/side, im.Height/side
	sums := env.K.Sums(outW * outH)

	// Accumulate input pixels into output cells, in whatever order the
	// read schedule delivers them.
	err = forEachChunk(env, in, readBuffer(env), func(off int64, data []byte) error {
		px, idx := pixels(im, off, data)
		env.ChargeCPUBytes(int64(len(px)), convertRate)
		accumulate(sums, px, idx, im.Width, side)
		return nil
	})
	if err != nil {
		return fits.Image{}, err
	}

	// Write the rebinned image.
	outIm, err := fits.NewImage(outW, outH, 16)
	if err != nil {
		return fits.Image{}, err
	}
	if _, err := env.K.CreateEmpty(outPath, outDev); err != nil {
		return fits.Image{}, err
	}
	out, err := env.K.Open(outPath)
	if err != nil {
		return fits.Image{}, err
	}
	defer out.Close()

	header := fits.EncodeHeader(fits.HeaderFor(outW, outH, 16))
	if _, err := out.WriteAt(header, 0); err != nil {
		return fits.Image{}, err
	}
	cells := int32(side * side)
	buf := make([]byte, 64<<10)
	bufStart := outIm.DataOffset
	fill := 0
	for i, s := range sums {
		fits.PutPixel16(buf[fill:], int16(s/cells))
		fill += 2
		if fill == len(buf) || i == len(sums)-1 {
			if _, err := out.WriteAt(buf[:fill], bufStart); err != nil {
				return fits.Image{}, err
			}
			env.ChargeCPUBytes(int64(fill), copyRate)
			bufStart += int64(fill)
			fill = 0
		}
	}
	// Pad the data unit to a block boundary.
	if padN := outIm.FileSize() - outIm.DataOffset - outIm.DataBytes; padN > 0 {
		if _, err := out.WriteAt(make([]byte, padN), outIm.DataOffset+outIm.DataBytes); err != nil {
			return fits.Image{}, err
		}
	}
	if err := out.Sync(); err != nil {
		return fits.Image{}, err
	}
	return outIm, nil
}

// maxSide is the largest boxcar side Fimgbin takes, so that its int32 sums
// cannot overflow: a cell of 255² int16 pixels sums to at most
// 65,025 × 32,768 = 2,130,739,200 < 2³¹ in magnitude.
const maxSide = 255

// accumulate adds the pixels of px, the first of which is pixel idx of an
// image width wide, into the boxcar sums (width/side cells per output
// row). It finds (x, y) once and then walks row by row, carrying the
// output cell and the position inside it instead of dividing per pixel.
//
// BenchmarkFimgbinAccumulate pins it at 0 allocs/op.
func accumulate(sums []int32, px []byte, idx int64, width, side int) {
	outW := width / side
	x, y := int(idx%int64(width)), int(idx/int64(width))
	base, inRow := y/side*outW, y%side
	cell, inCell := x/side, x%side
	for len(px) >= 2 {
		n := min(2*(width-x), len(px)) // bytes left in this image row
		addRow(sums[base:base+outW], px[:n], cell, inCell, side)
		px = px[n:]
		x, cell, inCell = 0, 0, 0
		if inRow++; inRow == side {
			base, inRow = base+outW, 0
		}
	}
}

// addRow adds the pixels of p, which lie in one image row from pixel inCell
// of cell on, into the cells of row. It decodes four pixels per 8-byte
// load; only the last pixels of p, fewer than four, are loaded one at a
// time.
//
// BenchmarkFimgbinAccumulate pins it at 0 allocs/op.
func addRow(row []int32, p []byte, cell, inCell, side int) {
	s, left := int32(0), side-inCell
	for ; len(p) >= 8; p = p[8:] {
		w := binary.BigEndian.Uint64(p)
		s, cell, left = addPixel(row, s+int32(int16(w>>48)), cell, left, side)
		s, cell, left = addPixel(row, s+int32(int16(w>>32)), cell, left, side)
		s, cell, left = addPixel(row, s+int32(int16(w>>16)), cell, left, side)
		s, cell, left = addPixel(row, s+int32(int16(w)), cell, left, side)
	}
	for ; len(p) >= 2; p = p[2:] {
		s, cell, left = addPixel(row, s+int32(fits.Pixel16(p)), cell, left, side)
	}
	if left < side {
		row[cell] += s
	}
}

// addPixel counts one more pixel, already added to s, the sum of the cell's
// pixels so far, of which left were missing. A complete cell is stored
// into the row, in its one store, and the next begins.
func addPixel(row []int32, s int32, cell, left, side int) (int32, int, int) {
	if left--; left > 0 {
		return s, cell, left
	}
	row[cell] += s
	return 0, cell + 1, side
}
