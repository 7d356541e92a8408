package fitsapp

import (
	"bytes"
	"fmt"
	"testing"

	"sleds/internal/apps/apptest"
	"sleds/internal/fits"
	"sleds/internal/trace"
)

// refAccumulate is fimgbin's accumulate loop before it walked rows: clip
// the chunk to the data unit, then derive every pixel's output cell from
// its file offset with four divisions.
func refAccumulate(sums []int64, im fits.Image, side int, off int64, data []byte) {
	lo, hi := off, off+int64(len(data))
	if lo < im.DataOffset {
		lo = im.DataOffset
	}
	if end := im.DataOffset + im.DataBytes; hi > end {
		hi = end
	}
	outW := im.Width / side
	for p := lo; p < hi; p += 2 {
		idx := (p - im.DataOffset) / 2
		x := int(idx % int64(im.Width))
		y := int(idx / int64(im.Width))
		sums[int64(y/side)*int64(outW)+int64(x/side)] += int64(fits.Pixel16(data[p-off : p-off+2]))
	}
}

// refBin is fimhisto's pass-3 formula before the table.
func refBin(v, min, max int16, bins int) int64 {
	return (int64(v) - int64(min)) * int64(bins) / (int64(max) - int64(min) + 1)
}

// pixel16 is the decoder the per-pixel loops used.
func pixel16(hi, lo byte) int16 { return int16(uint16(hi)<<8 | uint16(lo)) }

// refRange is fimhisto's pass-2 loop before pixelRange, verbatim.
func refRange(px []byte, min, max int16) (int16, int16) {
	for i := 0; i+1 < len(px); i += 2 {
		v := pixel16(px[i], px[i+1])
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// sameSums reports whether the int32 sums equal the reference's int64 ones.
func sameSums(got []int32, want []int64) bool {
	for i := range want {
		if int64(got[i]) != want[i] {
			return false
		}
	}
	return len(got) == len(want)
}

// mergedCounts folds binPixels' partial histograms into one.
func mergedCounts(counts []int64, bins int) []int64 {
	out := make([]int64, bins)
	for i, n := range counts {
		out[i%bins] += n
	}
	return out
}

// fileBytes materialises a synthetic image file.
func fileBytes(t testing.TB, w, h int) (fits.Image, []byte) {
	t.Helper()
	im, err := fits.NewImage(w, h, 16)
	if err != nil {
		t.Fatal(err)
	}
	return im, fits.NewContent(im, 18, apptest.PageSize).ReadAll()
}

// TestAccumulateMatchesReference applies single chunks, at every even
// offset of the file and at lengths chosen so that chunks start mid-row
// and mid-cell, span several rows, end on a row boundary and lie wholly
// in the header or the padding, to fresh sums through the row walker and
// through refAccumulate; then whole files in linear and shuffled chunk
// order at chunk sizes the width is not a multiple of.
func TestAccumulateMatchesReference(t *testing.T) {
	for _, side := range []int{2, 4} {
		for _, w := range []int{12, 20} {
			im, file := fileBytes(t, w, 8)
			cells := (w / side) * (8 / side)
			lengths := []int{2, 6, 2 * w, 2*w + 2, 5*2*w - 2, 4096}
			for off := 0; off < len(file); off += 2 {
				for _, n := range lengths {
					data := file[off:min(off+n, len(file))]
					got, want := make([]int32, cells), make([]int64, cells)
					px, idx := pixels(im, int64(off), data)
					accumulate(got, px, idx, w, side)
					refAccumulate(want, im, side, int64(off), data)
					if !sameSums(got, want) {
						t.Fatalf("side %d width %d chunk [%d,+%d): sums %v, want %v", side, w, off, n, got, want)
					}
				}
			}
			rng := trace.NewRNG(18)
			for _, chunk := range []int{14, 50, 1000} {
				var offs []int
				for off := 0; off < len(file); off += chunk {
					offs = append(offs, off)
				}
				for _, shuffled := range []bool{false, true} {
					if shuffled {
						for i := len(offs) - 1; i > 0; i-- {
							j := rng.Int64n(int64(i + 1))
							offs[i], offs[j] = offs[j], offs[i]
						}
					}
					got, want := make([]int32, cells), make([]int64, cells)
					for _, off := range offs {
						data := file[off:min(off+chunk, len(file))]
						px, idx := pixels(im, int64(off), data)
						accumulate(got, px, idx, w, side)
						refAccumulate(want, im, side, int64(off), data)
					}
					if !sameSums(got, want) {
						t.Fatalf("side %d width %d chunk size %d shuffled %v: sums differ", side, w, chunk, shuffled)
					}
				}
			}
		}
	}
}

func TestBinTableMatchesReference(t *testing.T) {
	for _, r := range [][2]int16{{7, 7}, {-5, 5}, {-300, -1}, {200, 2886}, {-32768, 32767}} {
		min, max := r[0], r[1]
		for _, bins := range []int{1, 64, 65536} {
			table := binTable(min, max, bins)
			counts := make([]int64, histLanes*bins)
			for v := int(min); v <= int(max); v++ {
				want := refBin(int16(v), min, max, bins)
				if got := int64(table[v-int(min)]); got != want {
					t.Fatalf("range [%d,%d] bins %d: value %d in bin %d, want %d", min, max, bins, v, got, want)
				}
				px := []byte{byte(uint16(v) >> 8), byte(v)}
				binPixels(counts, table, min, px)
				if counts[want] == 0 {
					t.Fatalf("range [%d,%d] bins %d: binPixels missed bin %d for value %d", min, max, bins, want, v)
				}
			}
		}
	}
}

// TestPixelKernelLanes puts an extreme pixel at every position of every
// length of buffer from 0 to 19 pixels, so that it lands in each lane of a
// word and in the per-pixel tail: pixelRange must report it, and binPixels
// must count it in its bin, as the oracles do.
func TestPixelKernelLanes(t *testing.T) {
	for n := 0; n < 20; n++ {
		for at := 0; at < n; at++ {
			for _, v := range []int16{-32768, -1, 4095, 32767} {
				px := bytes.Repeat([]byte{0x01, 0x00}, n) // 256 everywhere else
				px[2*at], px[2*at+1] = byte(uint16(v)>>8), byte(v)
				lo, hi := pixelRange(px, 32767, -32768)
				if wl, wh := refRange(px, 32767, -32768); lo != wl || hi != wh {
					t.Fatalf("%d pixels, %d at %d: range [%d,%d], want [%d,%d]", n, v, at, lo, hi, wl, wh)
				}
				const bins = 7
				counts := make([]int64, histLanes*bins)
				binPixels(counts, binTable(lo, hi, bins), lo, px)
				want := make([]int64, bins)
				for i := 0; i < n; i++ {
					want[refBin(pixel16(px[2*i], px[2*i+1]), lo, hi, bins)]++
				}
				if got := mergedCounts(counts, bins); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%d pixels, %d at %d: bins %v, want %v", n, v, at, got, want)
				}
			}
		}
	}
}

// TestOddBufSizeLinear: an odd BufSize used to make the linear read loop
// split a pixel across two chunks and panic slicing past the buffer.
func TestOddBufSizeLinear(t *testing.T) {
	for _, bufSize := range []int64{1, 4097} {
		m := apptest.New(t, 64)
		im := makeImage(t, m, "/data/img.fits", 5, 256, 64)
		env := m.Env(false)
		env.BufSize = bufSize
		got, err := Fimhisto(env, "/data/img.fits", "/data/hist.fits", 32, m.Disk)
		if err != nil {
			t.Fatal(err)
		}
		if !sameHistogram(got, refHistogram(5, im, 32)) {
			t.Fatalf("BufSize %d: histogram differs from the reference", bufSize)
		}
		if _, err := Fimgbin(env, "/data/img.fits", "/data/bin.fits", 4, m.Disk); err != nil {
			t.Fatal(err)
		}
		_, px := readRebinned(t, m, "/data/bin.fits")
		for i, want := range refRebin(5, im, 2) {
			if px[i] != want {
				t.Fatalf("BufSize %d: rebinned pixel %d = %d, want %d", bufSize, i, px[i], want)
			}
		}
	}
}

func BenchmarkFimgbinAccumulate(b *testing.B) {
	im, file := fileBytes(b, 1024, 64)
	page := file[2*apptest.PageSize : 3*apptest.PageSize]
	sums := make([]int32, (1024/2)*(64/2))
	px, idx := pixels(im, 2*apptest.PageSize, page)
	b.SetBytes(int64(len(px)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accumulate(sums, px, idx, im.Width, 2)
	}
}

func BenchmarkFimhistoBin(b *testing.B) {
	im, file := fileBytes(b, 1024, 64)
	page := file[2*apptest.PageSize : 3*apptest.PageSize]
	px, _ := pixels(im, 2*apptest.PageSize, page)
	table := binTable(200, 2886, 64)
	counts := make([]int64, histLanes*64)
	b.SetBytes(int64(len(px)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binPixels(counts, table, 200, px)
	}
}

func BenchmarkFimhistoRange(b *testing.B) {
	im, file := fileBytes(b, 1024, 64)
	page := file[2*apptest.PageSize : 3*apptest.PageSize]
	px, _ := pixels(im, 2*apptest.PageSize, page)
	b.SetBytes(int64(len(px)))
	b.ReportAllocs()
	b.ResetTimer()
	var lo, hi int16
	for i := 0; i < b.N; i++ {
		lo, hi = pixelRange(px, 32767, -32768)
	}
	if lo > hi {
		b.Fatal("no range")
	}
}

// FuzzPixelKernels checks the three pixel kernels against their oracles on
// arbitrary pixel bytes: accumulate against refAccumulate with the file cut
// into three chunks at even offsets, for a width and a boxcar side of 2 to
// 5; pixelRange against refRange on the middle chunk and the whole data
// unit; binPixels, through binTable, against refBin for 1 to 300 bins.
func FuzzPixelKernels(f *testing.F) {
	f.Add([]byte{0x80, 0, 0x7f, 0xff, 1, 2, 3, 4, 5, 6, 0xff, 0xfe}, uint16(2), uint16(5), uint8(3), uint8(0), uint16(63))
	f.Add(bytes.Repeat([]byte{0x0c, 0x81, 0xf3, 0x00, 0x00, 0x07}, 41), uint16(17), uint16(90), uint8(7), uint8(1), uint16(299))
	f.Fuzz(func(t *testing.T, data []byte, offArg, lenArg uint16, widthArg, sideArg uint8, binsArg uint16) {
		side := 2 + int(sideArg)%4
		w := side * (1 + int(widthArg)%8)
		h := side * max(1, (len(data)/2+w*side-1)/(w*side))
		im, err := fits.NewImage(w, h, 16)
		if err != nil {
			t.Fatal(err)
		}
		file := make([]byte, im.FileSize())
		copy(file[im.DataOffset:im.DataOffset+im.DataBytes], data)
		half := len(file) / 2
		lo := 2 * (int(offArg) % half)
		hi := min(lo+2*(1+int(lenArg)%half), len(file))

		cells := (w / side) * (h / side)
		got, want := make([]int32, cells), make([]int64, cells)
		for _, c := range [][2]int{{lo, hi}, {0, lo}, {hi, len(file)}} {
			px, idx := pixels(im, int64(c[0]), file[c[0]:c[1]])
			accumulate(got, px, idx, w, side)
			refAccumulate(want, im, side, int64(c[0]), file[c[0]:c[1]])
			if !sameSums(got, want) {
				t.Fatalf("width %d side %d chunk [%d,%d): sums %v, want %v", w, side, c[0], c[1], got, want)
			}
		}

		unit := file[im.DataOffset : im.DataOffset+im.DataBytes]
		mid, _ := pixels(im, int64(lo), file[lo:hi])
		for _, px := range [][]byte{mid, unit} {
			gl, gh := pixelRange(px, 32767, -32768)
			if wl, wh := refRange(px, 32767, -32768); gl != wl || gh != wh {
				t.Fatalf("range of %d bytes [%d,%d], want [%d,%d]", len(px), gl, gh, wl, wh)
			}
		}

		bins := 1 + int(binsArg)%300
		min, max := refRange(unit, 32767, -32768)
		counts := make([]int64, histLanes*bins)
		binPixels(counts, binTable(min, max, bins), min, unit)
		wantBins := make([]int64, bins)
		for i := 0; i+1 < len(unit); i += 2 {
			wantBins[refBin(pixel16(unit[i], unit[i+1]), min, max, bins)]++
		}
		if got := mergedCounts(counts, bins); fmt.Sprint(got) != fmt.Sprint(wantBins) {
			t.Fatalf("%d bins over [%d,%d]: %v, want %v", bins, min, max, got, wantBins)
		}
	})
}
