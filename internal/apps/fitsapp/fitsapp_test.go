package fitsapp

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"sleds/internal/apps/apptest"
	"sleds/internal/fits"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

// makeImage creates a synthetic FITS file on the machine's disk and
// returns its geometry.
func makeImage(t testing.TB, m *apptest.Machine, path string, seed uint64, w, h int) fits.Image {
	t.Helper()
	im, err := fits.NewImage(w, h, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.K.Create(path, m.Disk, fits.NewContent(im, seed, apptest.PageSize)); err != nil {
		t.Fatal(err)
	}
	return im
}

// refHistogram computes the expected histogram directly from PixelValue.
func refHistogram(seed uint64, im fits.Image, bins int) Histogram {
	min, max := int16(32767), int16(-32768)
	for i := int64(0); i < im.Pixels(); i++ {
		v := fits.PixelValue(seed, i)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	h := Histogram{Min: min, Max: max, Bins: make([]int64, bins)}
	span := int64(max) - int64(min) + 1
	for i := int64(0); i < im.Pixels(); i++ {
		v := fits.PixelValue(seed, i)
		h.Bins[(int64(v)-int64(min))*int64(bins)/span]++
	}
	return h
}

func sameHistogram(a, b Histogram) bool {
	if a.Min != b.Min || a.Max != b.Max || len(a.Bins) != len(b.Bins) {
		return false
	}
	for i := range a.Bins {
		if a.Bins[i] != b.Bins[i] {
			return false
		}
	}
	return true
}

func TestFimhistoLinearCorrect(t *testing.T) {
	m := apptest.New(t, 64)
	im := makeImage(t, m, "/data/img.fits", 5, 256, 64)
	want := refHistogram(5, im, 32)
	got, err := Fimhisto(m.Env(false), "/data/img.fits", "/data/out.fits", 32, m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHistogram(got, want) {
		t.Fatalf("histogram mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.Total() != im.Pixels() {
		t.Fatalf("binned %d pixels, want %d", got.Total(), im.Pixels())
	}
}

func TestFimhistoSLEDsMatchesLinearWarm(t *testing.T) {
	// Small cache: the three passes produce the Figure 3 pathology and
	// the SLEDs run reads far out of order. Results must be identical.
	m := apptest.New(t, 8)
	im := makeImage(t, m, "/data/img.fits", 6, 512, 96)
	_ = im
	m.WarmFile(t, "/data/img.fits")
	want, err := Fimhisto(m.Env(false), "/data/img.fits", "/data/out1.fits", 24, m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	m.WarmFile(t, "/data/img.fits")
	got, err := Fimhisto(m.Env(true), "/data/img.fits", "/data/out2.fits", 24, m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if !sameHistogram(got, want) {
		t.Fatalf("SLEDs histogram differs from linear")
	}
}

func TestFimhistoOutputIsFaithfulCopy(t *testing.T) {
	m := apptest.New(t, 16)
	im := makeImage(t, m, "/data/img.fits", 7, 128, 32)
	if _, err := Fimhisto(m.Env(true), "/data/img.fits", "/data/out.fits", 16, m.Disk); err != nil {
		t.Fatal(err)
	}
	in, _ := m.K.Open("/data/img.fits")
	defer in.Close()
	out, _ := m.K.Open("/data/out.fits")
	defer out.Close()
	if out.Size() <= in.Size() {
		t.Fatalf("output (%d) not larger than input (%d): histogram missing", out.Size(), in.Size())
	}
	// The copied prefix must match byte for byte.
	want := make([]byte, in.Size())
	if _, err := io.ReadFull(io.NewSectionReader(in, 0, in.Size()), want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, in.Size())
	if _, err := io.ReadFull(io.NewSectionReader(out, 0, in.Size()), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("copied image differs from input")
	}
	// The appended unit parses as our histogram marker.
	hdrBuf := make([]byte, fits.BlockSize)
	if _, err := out.ReadAt(hdrBuf, im.FileSize()); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Contains(hdrBuf, []byte("HISTGRAM")) {
		t.Fatalf("appended histogram header missing")
	}
}

func TestFimhistoValidation(t *testing.T) {
	m := apptest.New(t, 16)
	makeImage(t, m, "/data/img.fits", 7, 64, 16)
	if _, err := Fimhisto(m.Env(false), "/data/img.fits", "/data/out.fits", 0, m.Disk); err == nil {
		t.Fatalf("zero bins accepted")
	}
	if _, err := Fimhisto(m.Env(false), "/data/nope.fits", "/data/out.fits", 8, m.Disk); err == nil {
		t.Fatalf("missing input accepted")
	}
	// Not-a-FITS input.
	m.TextFile(t, "/data/text", 1, apptest.PageSize)
	if _, err := Fimhisto(m.Env(false), "/data/text", "/data/out.fits", 8, m.Disk); err == nil {
		t.Fatalf("non-FITS input accepted")
	}
}

// refRebin computes the expected rebinned pixels directly.
func refRebin(seed uint64, im fits.Image, side int) []int16 {
	outW, outH := im.Width/side, im.Height/side
	sums := make([]int64, outW*outH)
	for i := int64(0); i < im.Pixels(); i++ {
		x, y := int(i%int64(im.Width)), int(i/int64(im.Width))
		sums[(y/side)*outW+x/side] += int64(fits.PixelValue(seed, i))
	}
	out := make([]int16, len(sums))
	for i, s := range sums {
		out[i] = int16(s / int64(side*side))
	}
	return out
}

func readRebinned(t *testing.T, m *apptest.Machine, path string) (fits.Image, []int16) {
	t.Helper()
	f, err := m.K.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	im, err := fits.ParseHeader(f)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, im.DataBytes)
	if _, err := f.ReadAt(data, im.DataOffset); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	px := make([]int16, im.Pixels())
	for i := range px {
		px[i] = fits.Pixel16(data[i*2 : i*2+2])
	}
	return im, px
}

func TestFimgbinFactor4Correct(t *testing.T) {
	m := apptest.New(t, 64)
	im := makeImage(t, m, "/data/img.fits", 9, 128, 64)
	want := refRebin(9, im, 2)
	if _, err := Fimgbin(m.Env(false), "/data/img.fits", "/data/out.fits", 4, m.Disk); err != nil {
		t.Fatal(err)
	}
	outIm, got := readRebinned(t, m, "/data/out.fits")
	if outIm.Width != 64 || outIm.Height != 32 {
		t.Fatalf("output geometry %dx%d", outIm.Width, outIm.Height)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFimgbinSLEDsMatchesLinear(t *testing.T) {
	m := apptest.New(t, 8)
	makeImage(t, m, "/data/img.fits", 10, 256, 128)
	m.WarmFile(t, "/data/img.fits")
	if _, err := Fimgbin(m.Env(false), "/data/img.fits", "/data/a.fits", 16, m.Disk); err != nil {
		t.Fatal(err)
	}
	m.WarmFile(t, "/data/img.fits")
	if _, err := Fimgbin(m.Env(true), "/data/img.fits", "/data/b.fits", 16, m.Disk); err != nil {
		t.Fatal(err)
	}
	_, a := readRebinned(t, m, "/data/a.fits")
	_, b := readRebinned(t, m, "/data/b.fits")
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestArgumentCheckedBeforeOpen holds the contract fimhisto's and fimgbin's
// command lines rely on to check their flags by fitsapp's own rule: a bad
// bin count or factor is reported before any file is opened, so on a path
// that names no file a good one fails with ErrNotExist and a bad one not.
func TestArgumentCheckedBeforeOpen(t *testing.T) {
	m := apptest.New(t, 16)
	fimhisto := func(bins int) error {
		_, err := Fimhisto(m.Env(false), "/none", "/none", bins, m.Disk)
		return err
	}
	fimgbin := func(factor int) error {
		_, err := Fimgbin(m.Env(false), "/none", "/none", factor, m.Disk)
		return err
	}
	for _, c := range []struct {
		run  func(int) error
		arg  int
		good bool
	}{{fimhisto, 64, true}, {fimhisto, 0, false}, {fimhisto, 1<<16 + 1, false}, {fimgbin, 16, true}, {fimgbin, 3, false}} {
		if err := c.run(c.arg); errors.Is(err, vfs.ErrNotExist) != c.good {
			t.Errorf("argument %d: err %v; want ErrNotExist %v", c.arg, err, c.good)
		}
	}
}

func TestFimgbinValidation(t *testing.T) {
	m := apptest.New(t, 16)
	makeImage(t, m, "/data/img.fits", 7, 64, 16)
	for _, factor := range []int{0, 2, 3, 5, 8} {
		if _, err := Fimgbin(m.Env(false), "/data/img.fits", "/data/out.fits", factor, m.Disk); err == nil {
			t.Fatalf("factor %d accepted", factor)
		}
	}
	// Indivisible geometry.
	makeImage(t, m, "/data/odd.fits", 7, 63, 16)
	if _, err := Fimgbin(m.Env(false), "/data/odd.fits", "/data/out.fits", 4, m.Disk); err == nil {
		t.Fatalf("indivisible geometry accepted")
	}
	// A side of 255 is the largest whose int32 sums cannot overflow: taken,
	// and exact on an image it divides; 256 is refused.
	im := makeImage(t, m, "/data/wide.fits", 7, 255, 255)
	if _, err := Fimgbin(m.Env(false), "/data/wide.fits", "/data/out.fits", 255*255, m.Disk); err != nil {
		t.Fatal(err)
	}
	if _, px := readRebinned(t, m, "/data/out.fits"); len(px) != 1 || px[0] != refRebin(7, im, 255)[0] {
		t.Fatalf("side 255: %v, want %v", px, refRebin(7, im, 255))
	}
	makeImage(t, m, "/data/wider.fits", 7, 256, 256)
	if _, err := Fimgbin(m.Env(false), "/data/wider.fits", "/data/out2.fits", 256*256, m.Disk); err == nil {
		t.Fatalf("boxcar side 256 accepted")
	}
}

// TestHeaderLargerThanFile: a 2,880-byte file whose header claims
// 1,048,576 x 1,048,576 pixels is refused by both apps before either sizes
// anything from it (fimgbin's sums would not fit in memory).
func TestHeaderLargerThanFile(t *testing.T) {
	m := apptest.New(t, 16)
	hdr := fits.EncodeHeader(fits.HeaderFor(1<<20, 1<<20, 16))
	if _, err := m.K.Create("/data/huge.fits", m.Disk, workload.NewBytes(hdr, apptest.PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := Fimgbin(m.Env(false), "/data/huge.fits", "/data/out.fits", 4, m.Disk); err == nil {
		t.Fatal("fimgbin accepted a data unit past the end of the file")
	}
	if _, err := Fimhisto(m.Env(true), "/data/huge.fits", "/data/out.fits", 64, m.Disk); err == nil {
		t.Fatal("fimhisto accepted a data unit past the end of the file")
	}
}

// TestWarmRunsAllocateLittle: once a first run has left its written pages
// to the store (by the output's removal) and its boxcar sums to the
// kernel's arena, a second Fimgbin or Fimhisto run allocates far less than
// the image: neither sums nor written pages are new.
func TestWarmRunsAllocateLittle(t *testing.T) {
	m := apptest.New(t, 64)
	im := makeImage(t, m, "/data/img.fits", 3, 1024, 1024) // 2 MiB of pixels
	for _, app := range []struct {
		name string
		run  func() error
	}{
		{"fimgbin", func() error {
			_, err := Fimgbin(m.Env(false), "/data/img.fits", "/data/out.fits", 4, m.Disk)
			return err
		}},
		{"fimhisto", func() error {
			_, err := Fimhisto(m.Env(false), "/data/img.fits", "/data/out.fits", 64, m.Disk)
			return err
		}},
	} {
		var allocs [2]uint64
		for i := range allocs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := app.run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs[i] = after.TotalAlloc - before.TotalAlloc
			if err := m.K.Remove("/data/out.fits"); err != nil {
				t.Fatal(err)
			}
		}
		if allocs[1] > uint64(im.DataBytes/8) {
			t.Errorf("%s on a %d-byte image: first run allocated %d bytes, second %d", app.name, im.DataBytes, allocs[0], allocs[1])
		}
	}
}

func TestFimhistoSLEDsReducesFaults(t *testing.T) {
	// The headline LHEASOFT result: fewer hard faults with SLEDs when the
	// file exceeds the cache (paper: 30-50% fewer).
	m := apptest.New(t, 16)
	makeImage(t, m, "/data/img.fits", 11, 512, 160) // ~40 pages
	m.WarmFile(t, "/data/img.fits")

	m.K.ResetRunStats()
	if _, err := Fimhisto(m.Env(false), "/data/img.fits", "/data/o1.fits", 16, m.Disk); err != nil {
		t.Fatal(err)
	}
	without := m.K.RunStats().Faults

	m.WarmFile(t, "/data/img.fits")
	m.K.ResetRunStats()
	if _, err := Fimhisto(m.Env(true), "/data/img.fits", "/data/o2.fits", 16, m.Disk); err != nil {
		t.Fatal(err)
	}
	with := m.K.RunStats().Faults

	if with >= without {
		t.Fatalf("SLEDs fimhisto faults %d not below linear %d", with, without)
	}
}

func TestHistogramTotal(t *testing.T) {
	h := Histogram{Bins: []int64{1, 2, 3}}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
}
