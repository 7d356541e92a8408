package fits

import (
	"bytes"
	"testing"

	"sleds/internal/trace"
)

// refPixelValue is PixelValue's body before the gradient and noise terms
// became shifts and masks: the oracle the current one must equal bit for
// bit.
func refPixelValue(seed uint64, idx int64) int16 {
	h := seed ^ uint64(idx)*0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	base := int64(200) + (idx/64)%512
	noise := int64(h % 128)
	v := base + noise
	if h%997 == 0 {
		v += 2048
	}
	if v > 4095 {
		v = 4095
	}
	return int16(v)
}

// refGenPage is the page generator before it walked the pixel sub-slice:
// zero the page, copy the header, then derive every pixel's index from
// its file offset.
func refGenPage(im Image, seed uint64, pageSize int, page int64, buf []byte) {
	header := EncodeHeader(HeaderFor(im.Width, im.Height, im.BitPix))
	pageStart := page * int64(pageSize)
	for i := range buf {
		buf[i] = 0
	}
	if pageStart < int64(len(header)) {
		copy(buf, header[pageStart:])
	}
	dataEnd := im.DataOffset + im.DataBytes
	start := pageStart
	if start < im.DataOffset {
		start = im.DataOffset
	}
	end := pageStart + int64(pageSize)
	if end > dataEnd {
		end = dataEnd
	}
	for off := start; off < end; off += 2 {
		idx := (off - im.DataOffset) / 2
		PutPixel16(buf[off-pageStart:off-pageStart+2], refPixelValue(seed, idx))
	}
}

func TestPixelValueMatchesReference(t *testing.T) {
	check := func(idx int64) {
		if got, want := PixelValue(9, idx), refPixelValue(9, idx); got != want {
			t.Fatalf("PixelValue(9, %d) = %d, want %d", idx, got, want)
		}
	}
	for idx := int64(0); idx < 1<<20; idx++ {
		check(idx)
	}
	rng := trace.NewRNG(18)
	for i := 0; i < 10000; i++ {
		check(rng.Int64n(1 << 40))
	}
}

// TestGenMatchesReference compares every page of several geometries, at
// page sizes small enough that each kind of page occurs, byte for byte
// with refGenPage, generating into a dirty buffer.
func TestGenMatchesReference(t *testing.T) {
	const (
		pureHeader = iota
		headerData
		interior
		dataPadding
		purePadding
		kinds
	)
	var seen [kinds]int
	for _, geo := range [][2]int{{100, 50}, {300, 40}, {7, 3}, {1024, 9}, {1440, 1}, {1445, 1}} {
		im, err := NewImage(geo[0], geo[1], 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, pageSize := range []int{256, 1024, 4096} {
			gen := Gen(im, 9, pageSize)
			got, want := make([]byte, pageSize), make([]byte, pageSize)
			dataEnd := im.DataOffset + im.DataBytes
			for page := int64(0); page*int64(pageSize) < im.FileSize(); page++ {
				for i := range got {
					got[i] = 0xa5
				}
				gen(page, got)
				refGenPage(im, 9, pageSize, page, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("%dx%d page size %d: page %d differs from the reference", geo[0], geo[1], pageSize, page)
				}
				start, end := page*int64(pageSize), (page+1)*int64(pageSize)
				switch {
				case end <= im.DataOffset:
					seen[pureHeader]++
				case start < im.DataOffset:
					seen[headerData]++
				case end <= dataEnd:
					seen[interior]++
				case start < dataEnd:
					seen[dataPadding]++
				default:
					seen[purePadding]++
				}
			}
		}
	}
	for kind, n := range seen {
		if n == 0 {
			t.Errorf("page kind %d never generated: the geometries no longer cover it", kind)
		}
	}
}

func BenchmarkGenPage(b *testing.B) {
	im, _ := NewImage(1024, 1024, 16)
	gen := Gen(im, 9, 4096)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen(int64(8+i%256), buf)
	}
}
