package fits

import (
	"fmt"

	"sleds/internal/splitmix"
	"sleds/internal/workload"
)

// PixelValue is the deterministic synthetic pixel function: a smooth
// gradient (astronomical flat-field) plus hash noise and occasional bright
// "stars", all derived from (seed, pixel index). Values stay within a
// 12-bit range like real instrument data. idx must not be negative.
func PixelValue(seed uint64, idx int64) int16 {
	h := splitmix.Mix(seed ^ uint64(idx)*splitmix.Gamma)
	// Slow gradient (idx/64 mod 512) plus noise (h mod 128), as shifts
	// and masks: both operands are unsigned.
	v := 200 + (uint64(idx)>>6)&511 + h&127
	if h%997 == 0 { // sparse bright sources
		v += 2048
	}
	if v > 4095 {
		v = 4095
	}
	return int16(v)
}

// Gen returns a workload.PageGen producing the bytes of a synthetic FITS
// file for the given image geometry: encoded header, then PixelValue
// pixels, then zero padding. pageSize must be even so pixels never split
// across pages (the VM page size always is).
func Gen(im Image, seed uint64, pageSize int) workload.PageGen {
	if pageSize%2 != 0 {
		panic(fmt.Sprintf("fits: odd page size %d", pageSize))
	}
	if im.BitPix != 16 {
		panic(fmt.Sprintf("fits: generator only supports BITPIX 16, got %d", im.BitPix))
	}
	if im.DataOffset%2 != 0 {
		panic(fmt.Sprintf("fits: odd data offset %d", im.DataOffset))
	}
	header := EncodeHeader(HeaderFor(im.Width, im.Height, im.BitPix))
	dataEnd := im.DataOffset + im.DataBytes
	return func(page int64, buf []byte) {
		genPage(buf, page*int64(pageSize), header, im.DataOffset, dataEnd, seed)
	}
}

// genPage fills buf with the file's bytes from pageStart on: header bytes,
// zeros up to dataOffset, pixels up to dataEnd, zero padding after. Only
// the part outside the pixels is cleared; every pixel byte is written.
func genPage(buf []byte, pageStart int64, header []byte, dataOffset, dataEnd int64, seed uint64) {
	n := int64(len(buf))
	lo := min(max(dataOffset-pageStart, 0), n)
	hi := min(max(dataEnd-pageStart, lo), n)
	clear(buf[:lo])
	clear(buf[hi:])
	if pageStart < int64(len(header)) {
		copy(buf, header[pageStart:])
	}
	px := buf[lo:hi]
	idx := (pageStart + lo - dataOffset) / 2
	for i := 0; i+1 < len(px); i += 2 {
		v := PixelValue(seed, idx)
		px[i], px[i+1] = byte(v>>8), byte(v)
		idx++
	}
}

// NewContent builds workload content holding a synthetic FITS image, keyed
// by everything Gen reads.
func NewContent(im Image, seed uint64, pageSize int) *workload.Content {
	key := workload.Key{Gen: "fits", Seed: seed, PageSize: pageSize, Shape: [5]int64{int64(im.Width), int64(im.Height), int64(im.BitPix), im.DataOffset, im.DataBytes}}
	return workload.NewKeyed(key, im.FileSize(), Gen(im, seed, pageSize))
}
