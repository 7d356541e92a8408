// Package fits implements the slice of NASA's Flexible Image Transport
// System format that the LHEASOFT experiments need: 2880-byte blocks of
// 80-character header cards describing a 2-D 16-bit integer image, followed
// by big-endian pixel data padded to a block boundary.
//
// The paper's fimhisto and fimgbin operate on real FITS files; "the FITS
// format includes image metadata, as well as the data itself." The header
// parsing here is what forces those applications to touch page 0 before
// anything else, and the 16-bit data unit is what gives the element
// (ff*) SLEDs bindings something to align to.
package fits

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Format geometry.
const (
	BlockSize = 2880
	CardSize  = 80
)

// Card is one 80-character header record.
type Card struct {
	Key     string
	Value   string // already formatted (FITS right-justifies numbers)
	Comment string
}

// encode renders the card in fixed columns.
func (c Card) encode() []byte {
	out := make([]byte, CardSize)
	for i := range out {
		out[i] = ' '
	}
	copy(out, c.Key)
	if c.Value != "" {
		out[8] = '='
		// Value field right-justified to column 30 (1-based), per the
		// fixed-format convention.
		v := c.Value
		if len(v) < 20 {
			v = strings.Repeat(" ", 20-len(v)) + v
		}
		copy(out[10:], v)
		if c.Comment != "" {
			pos := 10 + len(v) + 1
			copy(out[pos:], "/ "+c.Comment)
		}
	}
	return out
}

// Image describes a primary HDU holding a 2-D image.
type Image struct {
	Width, Height int
	BitPix        int // bits per pixel; 16 is what LHEASOFT's tests use
	DataOffset    int64
	DataBytes     int64 // unpadded pixel bytes
}

// Pixels returns the pixel count.
func (im Image) Pixels() int64 { return int64(im.Width) * int64(im.Height) }

// FileSize returns the total file size: header block(s) plus the padded
// data unit.
func (im Image) FileSize() int64 {
	return im.DataOffset + pad(im.DataBytes)
}

// pad rounds up to a block boundary.
func pad(n int64) int64 {
	return (n + BlockSize - 1) / BlockSize * BlockSize
}

// HeaderFor builds the primary header for a 2-D image.
func HeaderFor(width, height, bitpix int) []Card {
	return []Card{
		{Key: "SIMPLE", Value: "T", Comment: "file conforms to FITS standard"},
		{Key: "BITPIX", Value: strconv.Itoa(bitpix), Comment: "bits per data pixel"},
		{Key: "NAXIS", Value: "2", Comment: "number of data axes"},
		{Key: "NAXIS1", Value: strconv.Itoa(width), Comment: "length of data axis 1"},
		{Key: "NAXIS2", Value: strconv.Itoa(height), Comment: "length of data axis 2"},
		{Key: "END"},
	}
}

// EncodeHeader renders cards into whole blocks (space padded).
func EncodeHeader(cards []Card) []byte {
	var out []byte
	for _, c := range cards {
		out = append(out, c.encode()...)
	}
	padded := make([]byte, pad(int64(len(out))))
	for i := range padded {
		padded[i] = ' '
	}
	copy(padded, out)
	return padded
}

// NewImage lays out a 2-D image file: header geometry plus data extents.
func NewImage(width, height, bitpix int) (Image, error) {
	if width <= 0 || height <= 0 {
		return Image{}, fmt.Errorf("fits: bad dimensions %dx%d", width, height)
	}
	switch bitpix {
	case 8, 16, 32:
	default:
		return Image{}, fmt.Errorf("fits: unsupported BITPIX %d", bitpix)
	}
	header := EncodeHeader(HeaderFor(width, height, bitpix))
	im := Image{
		Width:      width,
		Height:     height,
		BitPix:     bitpix,
		DataOffset: int64(len(header)),
		DataBytes:  int64(width) * int64(height) * int64(bitpix/8),
	}
	return im, nil
}

// ParseHeader reads and parses the primary header from r, returning the
// image geometry. Only the cards the experiments need are interpreted.
func ParseHeader(r io.ReaderAt) (Image, error) {
	var im Image
	var cards int
	buf := make([]byte, BlockSize)
	for block := int64(0); ; block++ {
		if _, err := r.ReadAt(buf, block*BlockSize); err != nil && err != io.EOF {
			return Image{}, fmt.Errorf("fits: reading header block %d: %w", block, err)
		}
		for i := 0; i < BlockSize; i += CardSize {
			card := string(buf[i : i+CardSize])
			cards++
			key := strings.TrimRight(card[:8], " ")
			if key == "END" {
				im.DataOffset = (block + 1) * BlockSize
				return finishParse(im)
			}
			if len(card) < 10 || card[8] != '=' {
				continue
			}
			val := strings.TrimSpace(strings.SplitN(card[10:], "/", 2)[0])
			switch key {
			case "SIMPLE":
				if val != "T" {
					return Image{}, fmt.Errorf("fits: not a standard FITS file (SIMPLE=%q)", val)
				}
			case "BITPIX":
				n, err := strconv.Atoi(val)
				if err != nil {
					return Image{}, fmt.Errorf("fits: bad BITPIX %q", val)
				}
				im.BitPix = n
			case "NAXIS1":
				n, err := strconv.Atoi(val)
				if err != nil {
					return Image{}, fmt.Errorf("fits: bad NAXIS1 %q", val)
				}
				im.Width = n
			case "NAXIS2":
				n, err := strconv.Atoi(val)
				if err != nil {
					return Image{}, fmt.Errorf("fits: bad NAXIS2 %q", val)
				}
				im.Height = n
			}
		}
		if cards > 36*64 {
			return Image{}, fmt.Errorf("fits: END card not found in %d cards", cards)
		}
	}
}

func finishParse(im Image) (Image, error) {
	if im.Width <= 0 || im.Height <= 0 {
		return Image{}, fmt.Errorf("fits: missing or bad NAXIS1/NAXIS2 (%d x %d)", im.Width, im.Height)
	}
	switch im.BitPix {
	case 8, 16, 32:
	default:
		return Image{}, fmt.Errorf("fits: unsupported BITPIX %d", im.BitPix)
	}
	// The padded data unit must end within an int64 byte offset.
	if maxH := (math.MaxInt64 - im.DataOffset - BlockSize) / int64(im.BitPix/8) / int64(im.Width); int64(im.Height) > maxH {
		return Image{}, fmt.Errorf("fits: %d x %d x %d-bit image overflows a file offset", im.Width, im.Height, im.BitPix)
	}
	im.DataBytes = int64(im.Width) * int64(im.Height) * int64(im.BitPix/8)
	return im, nil
}

// Pixel16 decodes a big-endian signed 16-bit pixel.
func Pixel16(b []byte) int16 { return int16(binary.BigEndian.Uint16(b)) }

// PutPixel16 encodes a big-endian signed 16-bit pixel.
func PutPixel16(b []byte, v int16) { binary.BigEndian.PutUint16(b, uint16(v)) }
