package workload

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New(10000, 4096, nil)
	if c.Size() != 10000 || c.PageSize() != 4096 {
		t.Fatalf("geometry wrong: %d/%d", c.Size(), c.PageSize())
	}
	if c.Pages() != 3 {
		t.Fatalf("Pages = %d, want 3", c.Pages())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		size int64
		ps   int
	}{{-1, 4096}, {100, 0}, {100, -4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.size, tc.ps)
				}
			}()
			New(tc.size, tc.ps, nil)
		}()
	}
}

func TestZeroGenDefault(t *testing.T) {
	c := New(8192, 4096, nil)
	buf := make([]byte, 4096)
	c.ReadPage(0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("default gen produced non-zero byte")
		}
	}
}

func TestReadPageDeterministic(t *testing.T) {
	c := NewText(42, 1<<20, 4096)
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	c.ReadPage(100, a)
	c.ReadPage(100, b)
	if !bytes.Equal(a, b) {
		t.Fatalf("same page read twice differs")
	}
}

func TestDifferentPagesDiffer(t *testing.T) {
	c := NewText(42, 1<<20, 4096)
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	c.ReadPage(0, a)
	c.ReadPage(1, b)
	if bytes.Equal(a, b) {
		t.Fatalf("adjacent pages identical")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	NewText(1, 1<<20, 4096).ReadPage(5, a)
	NewText(2, 1<<20, 4096).ReadPage(5, b)
	if bytes.Equal(a, b) {
		t.Fatalf("different seeds produced identical pages")
	}
}

func TestTextIsLineOriented(t *testing.T) {
	c := NewText(7, 64<<10, 4096)
	data := c.ReadAll()
	lines := bytes.Count(data, []byte{'\n'})
	if lines < 800 {
		t.Fatalf("only %d newlines in 64KB of text", lines)
	}
	// Lines are bounded: ~70 bytes within a page, at most double that when
	// a line spans a page boundary (pages generate independently).
	maxLine := 0
	cur := 0
	for _, b := range data {
		if b == '\n' {
			if cur > maxLine {
				maxLine = cur
			}
			cur = 0
		} else {
			cur++
		}
	}
	if maxLine > 160 {
		t.Fatalf("line of %d bytes generated", maxLine)
	}
}

func TestFinalPageZeroPadded(t *testing.T) {
	c := NewText(3, 5000, 4096)
	buf := make([]byte, 4096)
	c.ReadPage(1, buf)
	for i := 5000 - 4096; i < 4096; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d past EOF not zero", i)
		}
	}
}

func TestReadPageBadArgsPanics(t *testing.T) {
	c := NewText(1, 8192, 4096)
	for _, fn := range []func(){
		func() { c.ReadPage(0, make([]byte, 100)) },
		func() { c.ReadPage(-1, make([]byte, 4096)) },
		func() { c.ReadPage(2, make([]byte, 4096)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad ReadPage did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestInsertAt(t *testing.T) {
	c := NewText(9, 1<<20, 4096)
	needle := []byte("NEEDLE-IN-HAYSTACK")
	if err := c.TryInsertAt(10000, needle); err != nil {
		t.Fatal(err)
	}
	data := c.ReadAll()
	if !bytes.Equal(data[10000:10000+len(needle)], needle) {
		t.Fatalf("fragment not visible at offset")
	}
}

func TestInsertAtPageBoundarySpanning(t *testing.T) {
	c := NewText(9, 1<<20, 4096)
	frag := bytes.Repeat([]byte{'Z'}, 100)
	if err := c.TryInsertAt(4096-50, frag); err != nil { // spans pages 0 and 1
		t.Fatal(err)
	}
	data := c.ReadAll()
	if !bytes.Equal(data[4096-50:4096+50], frag) {
		t.Fatalf("boundary-spanning fragment corrupted")
	}
}

func TestInsertCopiesData(t *testing.T) {
	c := NewText(9, 1<<20, 4096)
	frag := []byte("hello")
	if err := c.TryInsertAt(0, frag); err != nil {
		t.Fatal(err)
	}
	frag[0] = 'X'
	buf := make([]byte, 4096)
	c.ReadPage(0, buf)
	if buf[0] != 'h' {
		t.Fatalf("TryInsertAt did not copy its input")
	}
}

func TestWritePageShadowsEverything(t *testing.T) {
	c := NewText(5, 1<<20, 4096)
	if err := c.TryInsertAt(4096, []byte("fragment")); err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{7}, 4096)
	c.WritePage(1, page)
	buf := make([]byte, 4096)
	c.ReadPage(1, buf)
	if !bytes.Equal(buf, page) {
		t.Fatalf("written page not returned verbatim")
	}
}

func TestWritePageExtends(t *testing.T) {
	c := New(4096, 4096, nil)
	c.WritePage(5, make([]byte, 4096))
	if c.Size() != 6*4096 {
		t.Fatalf("size after extending write = %d, want %d", c.Size(), 6*4096)
	}
}

func TestWritePageCopies(t *testing.T) {
	c := New(4096, 4096, nil)
	page := make([]byte, 4096)
	page[0] = 1
	c.WritePage(0, page)
	page[0] = 99
	buf := make([]byte, 4096)
	c.ReadPage(0, buf)
	if buf[0] != 1 {
		t.Fatalf("WritePage did not copy its input")
	}
}

func TestResizeShrinkDropsWrites(t *testing.T) {
	c := New(4*4096, 4096, nil)
	p := bytes.Repeat([]byte{9}, 4096)
	c.WritePage(3, p)
	c.Resize(4096)
	c.Resize(4 * 4096)
	buf := make([]byte, 4096)
	c.ReadPage(3, buf)
	if buf[0] != 0 {
		t.Fatalf("written page survived shrink")
	}
}

func TestNewBytesRoundTrip(t *testing.T) {
	data := []byte("The quick brown fox jumps over the lazy dog")
	c := NewBytes(data, 16)
	if got := c.ReadAll(); !bytes.Equal(got, data) {
		t.Fatalf("NewBytes round trip: %q != %q", got, data)
	}
}

func TestMatchLine(t *testing.T) {
	line := MatchLine("xyzzy", 64)
	if len(line) != 64 {
		t.Fatalf("len = %d, want 64", len(line))
	}
	if line[0] != '\n' || line[63] != '\n' {
		t.Fatalf("match line not newline-delimited")
	}
	if !bytes.Contains(line, []byte("xyzzy")) {
		t.Fatalf("needle missing from match line")
	}
}

func TestMatchLineTooNarrowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("narrow MatchLine did not panic")
		}
	}()
	MatchLine("abcdef", 7)
}

func TestPlantMatchVisible(t *testing.T) {
	c := NewText(11, 1<<20, 4096)
	PlantMatch(c, 500000, "xyzzy")
	data := c.ReadAll()
	idx := bytes.Index(data, []byte("xyzzy"))
	if idx < 0 {
		t.Fatalf("planted needle not found")
	}
	if idx < 499900 || idx > 500100 {
		t.Fatalf("needle at %d, want near 500000", idx)
	}
	if bytes.Index(data[idx+1:], []byte("xyzzy")) >= 0 {
		t.Fatalf("needle appears more than once")
	}
}

func TestPlantMatchClampsNearEOF(t *testing.T) {
	c := NewText(11, 8192, 4096)
	PlantMatch(c, 8190, "xyzzy")
	if !bytes.Contains(c.ReadAll(), []byte("xyzzy")) {
		t.Fatalf("clamped plant missing")
	}
}

func TestLexiconAvoidsNeedle(t *testing.T) {
	// The generator must never produce the experiment needle by itself.
	c := NewText(1234, 4<<20, 4096)
	if bytes.Contains(c.ReadAll(), []byte("xyzzy")) {
		t.Fatalf("generator produced the needle spontaneously")
	}
}

// Property: ReadAll length always equals Size, and page reads compose to
// the same bytes as ReadAll.
func TestReadCompositionProperty(t *testing.T) {
	f := func(seedRaw uint32, sizeRaw uint16) bool {
		size := int64(sizeRaw)%20000 + 1
		c := NewText(uint64(seedRaw), size, 256)
		all := c.ReadAll()
		if int64(len(all)) != size {
			return false
		}
		buf := make([]byte, 256)
		for p := int64(0); p < c.Pages(); p++ {
			c.ReadPage(p, buf)
			start := p * 256
			end := start + 256
			if end > size {
				end = size
			}
			if !bytes.Equal(buf[:end-start], all[start:end]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
