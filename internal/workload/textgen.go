package workload

import (
	"fmt"

	"sleds/internal/splitmix"
)

// Deterministic pseudo-text generation. Each page is generated
// independently from (seed, page) with a splitmix64 stream, so any page
// can be produced in O(pageSize) without generating its predecessors —
// the property that lets the simulator serve random page faults cheaply.

// lexicon is a small pool of lowercase words; none of them contains the
// grep experiment's needle ("xyzzy..."), so planted matches are the only
// matches. It is an array so its length is a compile-time constant: the
// generator's `% len(lexicon)` compiles to a multiply, not a divide.
var lexicon = [...]string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
	"storage", "latency", "estimation", "descriptor", "cache", "page",
	"fault", "disk", "tape", "mount", "seek", "transfer", "bandwidth",
	"kernel", "library", "vector", "offset", "length", "segment", "file",
	"system", "buffer", "linear", "pass", "reorder", "prune", "report",
	"astronomy", "image", "histogram", "rebin", "pixel", "header", "unit",
}

// slotSize is the width of a padded word slot: longer than any lexicon
// word, and a size the compiler copies with two register moves.
const slotSize = 16

// wordSlot is one lexicon word padded to slotSize bytes, so the
// generator copies a whole slot instead of looping over the word's bytes.
// The last byte holds the word's length.
type wordSlot [slotSize]byte

// slots is the lexicon in slot form, index for index.
var slots = func() (out [len(lexicon)]wordSlot) {
	for i, w := range lexicon {
		if len(w) >= slotSize-1 {
			panic("workload: lexicon word " + w + " does not fit a slot")
		}
		out[i][slotSize-1] = byte(copy(out[i][:], w))
	}
	return out
}()

// TextGen returns a PageGen producing line-oriented pseudo-text: words from
// the lexicon separated by single spaces, newlines roughly every 50-70
// bytes. Page content depends only on (seed, page).
func TextGen(seed uint64) PageGen {
	return func(page int64, buf []byte) { textPage(seed, page, buf) }
}

// breakLine spends the stream's next draw on whether a line of lineLen
// bytes ends here: at 50 bytes plus the draw mod 20. Below 50 the answer is
// no whatever the draw, so the stream is stepped and the draw never mixed.
func breakLine(lineLen int, state *uint64) bool {
	if lineLen < 50 {
		*state += splitmix.Gamma
		return false
	}
	return lineLen >= 50+int(splitmix.Next(state)%20)
}

// textPage fills buf with the text of one page. While a whole slot fits
// it copies the word's slot and lets what follows overwrite the padding;
// in the last few bytes of the buffer, where a slot would overrun, it
// copies the word alone, cut short at the buffer's end.
//
//sledlint:hotpath
func textPage(seed uint64, page int64, buf []byte) {
	state := seed ^ (uint64(page)+1)*splitmix.Gamma
	// Warm the stream so adjacent pages decorrelate.
	splitmix.Next(&state)

	lineLen := 0
	for len(buf) >= slotSize {
		s := &slots[splitmix.Next(&state)%uint64(len(lexicon))]
		copy(buf[:slotSize], s[:])
		// The mask shows the compiler n < slotSize <= len(buf): no bounds
		// checks in this loop.
		n := int(s[slotSize-1]) & (slotSize - 1)
		lineLen += n
		sep := byte(' ')
		if breakLine(lineLen, &state) {
			sep = '\n'
			lineLen = 0
		}
		buf[n] = sep
		buf = buf[n+1:]
	}
	for len(buf) > 0 {
		s := &slots[splitmix.Next(&state)%uint64(len(lexicon))]
		n := copy(buf, s[:s[slotSize-1]])
		lineLen += n
		if n == len(buf) {
			break
		}
		if breakLine(lineLen, &state) {
			buf[n] = '\n'
			lineLen = 0
		} else {
			buf[n] = ' '
		}
		buf = buf[n+1:]
	}
}

// NewText creates pseudo-text content of the given size.
func NewText(seed uint64, size int64, pageSize int) *Content {
	return NewKeyed(Key{Gen: "text", Seed: seed, PageSize: pageSize}, size, TextGen(seed))
}

// MatchLine builds a full text line embedding needle, padded to exactly
// width bytes including the trailing newline (width must exceed
// len(needle)+2). Planting whole lines keeps the grep experiments honest:
// the match is found by scanning line content, not by luck of phasing.
func MatchLine(needle string, width int) []byte {
	if width < len(needle)+2 {
		panic("workload: match line width too small")
	}
	line := make([]byte, width)
	for i := range line {
		line[i] = 'a' + byte(i%13)
	}
	line[0] = '\n' // terminate whatever line the splice lands inside
	copy(line[1+(width-2-len(needle))/2:], needle)
	line[width-1] = '\n'
	return line
}

// matchLineWidth is the fixed width of a planted match line.
const matchLineWidth = 64

// TryPlantMatch splices a line containing needle so that it covers byte
// offset off, clamping off so the line fits inside the content. It
// returns an error when the content is under matchLineWidth bytes, the
// needle over matchLineWidth-2, or the clamped splice overlaps a
// previously planted line.
func TryPlantMatch(c *Content, off int64, needle string) error {
	if c.Size() < matchLineWidth {
		return fmt.Errorf("workload: content of %d bytes cannot hold a %d-byte match line", c.Size(), matchLineWidth)
	}
	if len(needle) > matchLineWidth-2 {
		return fmt.Errorf("workload: a %d-byte match line cannot hold a %d-byte needle", matchLineWidth, len(needle))
	}
	if off > c.Size()-matchLineWidth {
		off = c.Size() - matchLineWidth
	}
	if off < 0 {
		off = 0
	}
	return c.TryInsertAt(off, MatchLine(needle, matchLineWidth))
}

// PlantMatch is TryPlantMatch for experiment driver code: a file too
// small for a match line or an overlapping plant is a programming error
// in the experiment's geometry, so it panics with TryPlantMatch's error
// instead of returning it.
func PlantMatch(c *Content, off int64, needle string) {
	if err := TryPlantMatch(c, off, needle); err != nil {
		panic(err.Error())
	}
}
