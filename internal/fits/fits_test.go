package fits

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"

	"sleds/internal/workload"
)

func TestHeaderRoundTrip(t *testing.T) {
	im, err := NewImage(512, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeHeader(HeaderFor(im.Width, im.Height, im.BitPix))
	if len(enc)%BlockSize != 0 {
		t.Fatalf("header not block-padded: %d", len(enc))
	}
	got, err := ParseHeader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 512 || got.Height != 256 || got.BitPix != 16 {
		t.Fatalf("parsed %+v", got)
	}
	if got.DataOffset != int64(len(enc)) {
		t.Fatalf("data offset %d, want %d", got.DataOffset, len(enc))
	}
	if got.DataBytes != 512*256*2 {
		t.Fatalf("data bytes %d", got.DataBytes)
	}
}

func TestNewImageValidation(t *testing.T) {
	for _, tc := range []struct{ w, h, bp int }{
		{0, 10, 16}, {10, 0, 16}, {-1, 5, 16}, {10, 10, 12}, {10, 10, 64},
	} {
		if _, err := NewImage(tc.w, tc.h, tc.bp); err == nil {
			t.Errorf("NewImage(%d,%d,%d) accepted", tc.w, tc.h, tc.bp)
		}
	}
}

func TestFileSizePadded(t *testing.T) {
	im, _ := NewImage(7, 3, 16) // 42 data bytes -> one padded block
	if im.FileSize() != im.DataOffset+BlockSize {
		t.Fatalf("file size %d", im.FileSize())
	}
	im2, _ := NewImage(1440, 1, 16) // exactly one block of data
	if im2.FileSize() != im2.DataOffset+BlockSize {
		t.Fatalf("exact block padded wrong: %d", im2.FileSize())
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	junk := bytes.Repeat([]byte{'x'}, 2*BlockSize)
	if _, err := ParseHeader(bytes.NewReader(junk)); err == nil {
		t.Fatalf("garbage accepted")
	}
	// SIMPLE=F must be rejected.
	cards := []Card{{Key: "SIMPLE", Value: "F"}, {Key: "END"}}
	if _, err := ParseHeader(bytes.NewReader(EncodeHeader(cards))); err == nil {
		t.Fatalf("SIMPLE=F accepted")
	}
	// Missing NAXIS1.
	cards = []Card{{Key: "SIMPLE", Value: "T"}, {Key: "BITPIX", Value: "16"}, {Key: "END"}}
	if _, err := ParseHeader(bytes.NewReader(EncodeHeader(cards))); err == nil {
		t.Fatalf("missing NAXIS accepted")
	}
}

func TestPixelRoundTripProperty(t *testing.T) {
	f := func(v int16) bool {
		var b [2]byte
		PutPixel16(b[:], v)
		return Pixel16(b[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPixelValueRange(t *testing.T) {
	for idx := int64(0); idx < 100000; idx++ {
		v := PixelValue(7, idx)
		if v < 0 || v > 4095 {
			t.Fatalf("pixel %d out of 12-bit range: %d", idx, v)
		}
	}
}

func TestPixelValueDeterministic(t *testing.T) {
	if PixelValue(1, 500) != PixelValue(1, 500) {
		t.Fatalf("nondeterministic pixel")
	}
	same := true
	for idx := int64(0); idx < 100; idx++ {
		if PixelValue(1, idx) != PixelValue(2, idx) {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds do not change pixels")
	}
}

func TestGenProducesParsableFile(t *testing.T) {
	im, _ := NewImage(100, 50, 16)
	c := NewContent(im, 9, 4096)
	if c.Size() != im.FileSize() {
		t.Fatalf("content size %d, want %d", c.Size(), im.FileSize())
	}
	data := c.ReadAll()
	parsed, err := ParseHeader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Width != 100 || parsed.Height != 50 {
		t.Fatalf("parsed %+v", parsed)
	}
	// Every pixel in the materialised file matches PixelValue.
	for idx := int64(0); idx < parsed.Pixels(); idx++ {
		off := parsed.DataOffset + idx*2
		if got := Pixel16(data[off : off+2]); got != PixelValue(9, idx) {
			t.Fatalf("pixel %d = %d, want %d", idx, got, PixelValue(9, idx))
		}
	}
	// Padding after the data unit is zero.
	for off := parsed.DataOffset + parsed.DataBytes; off < int64(len(data)); off++ {
		if data[off] != 0 {
			t.Fatalf("padding byte %d not zero", off)
		}
	}
}

func TestGenPageIndependence(t *testing.T) {
	// Reading page 5 alone must equal page 5 of a full materialisation.
	im, _ := NewImage(300, 40, 16)
	c1 := NewContent(im, 3, 4096)
	full := c1.ReadAll()
	c2 := NewContent(im, 3, 4096)
	buf := make([]byte, 4096)
	c2.ReadPage(5, buf)
	if !bytes.Equal(buf, full[5*4096:6*4096]) {
		t.Fatalf("page 5 differs when generated independently")
	}
}

func TestGenValidations(t *testing.T) {
	im, _ := NewImage(10, 10, 16)
	for _, fn := range []func(){
		func() { Gen(im, 1, 4095) },
		func() { Gen(Image{Width: 1, Height: 1, BitPix: 8}, 1, 4096) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad Gen config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestCardEncodingColumns(t *testing.T) {
	c := Card{Key: "NAXIS1", Value: "512", Comment: "length of data axis 1"}
	enc := c.encode()
	if len(enc) != CardSize {
		t.Fatalf("card length %d", len(enc))
	}
	if string(enc[:6]) != "NAXIS1" || enc[8] != '=' {
		t.Fatalf("card layout wrong: %q", enc)
	}
	if !bytes.Contains(enc, []byte("/ length")) {
		t.Fatalf("comment missing: %q", enc)
	}
}

func TestParseRejectsOverflowingGeometry(t *testing.T) {
	for _, g := range [][3]int{{1 << 62, 4, 16}, {1 << 31, 1 << 31, 32}, {3037000500, 3037000500, 8}} {
		if im, err := ParseHeader(bytes.NewReader(EncodeHeader(HeaderFor(g[0], g[1], g[2])))); err == nil {
			t.Errorf("%d x %d x %d accepted: %+v", g[0], g[1], g[2], im)
		}
	}
	// Large but representable: accepted, sized exactly.
	im, err := ParseHeader(bytes.NewReader(EncodeHeader(HeaderFor(1<<20, 1<<20, 16))))
	if err != nil || im.DataBytes != 1<<41 {
		t.Fatalf("1M x 1M x 16: %+v, %v", im, err)
	}
}

// FuzzParseHeader feeds ParseHeader arbitrary bytes: it must not panic, and
// whatever it accepts must describe a data unit whose padded end, computed
// without overflow, fits in an int64 file offset.
func FuzzParseHeader(f *testing.F) {
	f.Add(EncodeHeader(HeaderFor(512, 256, 16)))
	f.Add(EncodeHeader(HeaderFor(1<<20, 1<<20, 16)))
	f.Add(EncodeHeader(HeaderFor(1<<62, 4, 16)))
	f.Add(EncodeHeader([]Card{{Key: "SIMPLE", Value: "T"}, {Key: "BITPIX", Value: "32"}, {Key: "NAXIS1", Value: "-3"}, {Key: "END"}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		im, err := ParseHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if im.Width <= 0 || im.Height <= 0 || (im.BitPix != 8 && im.BitPix != 16 && im.BitPix != 32) {
			t.Fatalf("accepted %+v", im)
		}
		want := new(big.Int).Mul(big.NewInt(int64(im.Width)), big.NewInt(int64(im.Height)))
		want.Mul(want, big.NewInt(int64(im.BitPix/8)))
		if want.Cmp(big.NewInt(im.DataBytes)) != 0 {
			t.Fatalf("%+v: DataBytes %d, want %v", im, im.DataBytes, want)
		}
		end := new(big.Int).Add(want, big.NewInt(im.DataOffset+BlockSize))
		if !end.IsInt64() || im.FileSize() < im.DataOffset+im.DataBytes {
			t.Fatalf("%+v: a data unit ending at %v overflows a file offset", im, end)
		}
	})
}

// TestKeysKeepSameSeedContentApart: text and FITS content, FITS content of
// two geometries and text of two page sizes, all from one seed and all of
// the same page count, never read each other's pages from a store that
// keeps every one of them across Resets.
func TestKeysKeepSameSeedContentApart(t *testing.T) {
	const seed = 7
	wide, err := NewImage(128, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	tall, err := NewImage(64, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	size := wide.FileSize() // tall's too: the same pixel count
	contents := []func() *workload.Content{
		func() *workload.Content { return NewContent(wide, seed, 4096) },
		func() *workload.Content { return NewContent(tall, seed, 4096) },
		func() *workload.Content { return workload.NewText(seed, size, 4096) },
		func() *workload.Content { return workload.NewText(seed, 2*size, 8192) },
	}
	var store workload.Store
	for round := 0; round < 2; round++ {
		for i, mk := range contents {
			store.Reset()
			c := mk()
			c.KeepIn(&store)
			if !bytes.Equal(c.ReadAll(), mk().ReadAll()) {
				t.Fatalf("round %d: content %d reads another content's pages through the store", round, i)
			}
		}
	}
}
