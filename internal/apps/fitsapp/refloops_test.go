package fitsapp

import (
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
					got, want := make([]int64, cells), make([]int64, cells)
					px, idx := pixels(im, int64(off), data)
					accumulate(got, px, idx, w, side)
					refAccumulate(want, im, side, int64(off), data)
					if fmt.Sprint(got) != fmt.Sprint(want) {
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
					got, want := make([]int64, cells), make([]int64, cells)
					for _, off := range offs {
						data := file[off:min(off+chunk, len(file))]
						px, idx := pixels(im, int64(off), data)
						accumulate(got, px, idx, w, side)
						refAccumulate(want, im, side, int64(off), data)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
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
			counts := make([]int64, bins)
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
	sums := make([]int64, (1024/2)*(64/2))
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
	counts := make([]int64, 64)
	b.SetBytes(int64(len(px)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binPixels(counts, table, 200, px)
	}
}
