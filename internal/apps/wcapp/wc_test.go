package wcapp

import (
	"bytes"
	"testing"
	"testing/quick"

	"sleds/internal/apps/apptest"
	"sleds/internal/trace"
	"sleds/internal/workload"
)

// refCount is the reference word counter: a single in-memory pass.
func refCount(data []byte) Result {
	var r Result
	inWord := false
	for _, c := range data {
		if c == '\n' {
			r.Lines++
		}
		if isSpace(c) {
			inWord = false
		} else if !inWord {
			inWord = true
			r.Words++
		}
	}
	r.Bytes = int64(len(data))
	return r
}

func TestLinearMatchesReference(t *testing.T) {
	m := apptest.New(t, 64)
	c := m.TextFile(t, "/data/f", 42, 3*apptest.PageSize+777)
	want := refCount(c.ReadAll())
	got, err := Run(m.Env(false), "/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("linear wc = %+v, want %+v", got, want)
	}
}

func TestSLEDsMatchesReferenceColdCache(t *testing.T) {
	m := apptest.New(t, 64)
	c := m.TextFile(t, "/data/f", 42, 3*apptest.PageSize+777)
	want := refCount(c.ReadAll())
	got, err := Run(m.Env(true), "/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SLEDs wc = %+v, want %+v", got, want)
	}
}

func TestSLEDsMatchesReferenceWarmPartialCache(t *testing.T) {
	// The crucial case: file larger than cache, tail resident, so the
	// SLEDs variant reads out of order and must reconcile boundaries.
	m := apptest.New(t, 8)
	c := m.TextFile(t, "/data/f", 7, 20*apptest.PageSize+123)
	m.WarmFile(t, "/data/f")
	want := refCount(c.ReadAll())
	// ReadAll materialises content without touching the simulated cache,
	// so the warm state is intact.
	got, err := Run(m.Env(true), "/data/f")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SLEDs wc (warm) = %+v, want %+v", got, want)
	}
}

func TestBoundaryWordNotDoubleCounted(t *testing.T) {
	// Build a file whose only content is one long word spanning many
	// pages: every chunk boundary cuts it, so without reconciliation the
	// SLEDs count would be ~chunks, not 1.
	m := apptest.New(t, 8)
	size := int64(6 * apptest.PageSize)
	word := bytes.Repeat([]byte{'x'}, int(size))
	c := workload.NewBytes(word, apptest.PageSize)
	if _, err := m.K.Create("/data/oneword", m.Disk, c); err != nil {
		t.Fatal(err)
	}
	m.WarmFile(t, "/data/oneword")
	env := m.Env(true)
	env.BufSize = apptest.PageSize
	got, err := Run(env, "/data/oneword")
	if err != nil {
		t.Fatal(err)
	}
	if got.Words != 1 || got.Lines != 0 || got.Bytes != size {
		t.Fatalf("one-word file counted as %+v", got)
	}
}

func TestEmptyFile(t *testing.T) {
	m := apptest.New(t, 8)
	if _, err := m.K.CreateEmpty("/data/empty", m.Disk); err != nil {
		t.Fatal(err)
	}
	for _, sleds := range []bool{false, true} {
		got, err := Run(m.Env(sleds), "/data/empty")
		if err != nil {
			t.Fatal(err)
		}
		if got != (Result{}) {
			t.Fatalf("empty file (sleds=%v) = %+v", sleds, got)
		}
	}
}

func TestMissingFile(t *testing.T) {
	m := apptest.New(t, 8)
	if _, err := Run(m.Env(false), "/data/nope"); err == nil {
		t.Fatalf("missing file succeeded")
	}
	if _, err := Run(m.Env(true), "/data/nope"); err == nil {
		t.Fatalf("missing file (sleds) succeeded")
	}
}

func TestSLEDsFewerFaultsOnWarmCache(t *testing.T) {
	m := apptest.New(t, 8)
	m.TextFile(t, "/data/f", 3, 16*apptest.PageSize)
	m.WarmFile(t, "/data/f")

	m.K.ResetRunStats()
	if _, err := Run(m.Env(false), "/data/f"); err != nil {
		t.Fatal(err)
	}
	without := m.K.RunStats().Faults

	m.WarmFile(t, "/data/f")
	m.K.ResetRunStats()
	if _, err := Run(m.Env(true), "/data/f"); err != nil {
		t.Fatal(err)
	}
	with := m.K.RunStats().Faults

	if without != 16 {
		t.Fatalf("without SLEDs faults = %d, want 16", without)
	}
	if with >= without {
		t.Fatalf("SLEDs faults %d not below %d", with, without)
	}
}

func TestSLEDsFasterOnWarmCacheLargerThanCache(t *testing.T) {
	m := apptest.New(t, 8)
	m.TextFile(t, "/data/f", 3, 24*apptest.PageSize)
	m.WarmFile(t, "/data/f")

	start := m.K.Clock.Now()
	Run(m.Env(false), "/data/f")
	without := m.K.Clock.Now() - start

	m.WarmFile(t, "/data/f")
	start = m.K.Clock.Now()
	Run(m.Env(true), "/data/f")
	with := m.K.Clock.Now() - start

	if with >= without {
		t.Fatalf("SLEDs run (%v) not faster than linear (%v)", with, without)
	}
}

func TestCountChunkEdges(t *testing.T) {
	cases := []struct {
		in                 string
		lines, words       int64
		startsNon, endsNon bool
	}{
		{"", 0, 0, false, false},
		{"a", 0, 1, true, true},
		{" a ", 0, 1, false, false},
		{"a b", 0, 2, true, true},
		{"\n\n", 2, 0, false, false},
		{"one two\nthree", 1, 3, true, true},
		{"  ", 0, 0, false, false},
	}
	for _, tc := range cases {
		l, w, s, e := countChunk([]byte(tc.in))
		if l != tc.lines || w != tc.words || s != tc.startsNon || e != tc.endsNon {
			t.Errorf("countChunk(%q) = %d,%d,%v,%v", tc.in, l, w, s, e)
		}
	}
}

// Property: SLEDs and linear wc agree for any seed/size/buffer/cache
// configuration.
func TestAgreementProperty(t *testing.T) {
	f := func(seed uint16, sizeRaw uint16, bufRaw uint8) bool {
		m := apptest.New(t, 4)
		size := int64(sizeRaw)%40000 + 1
		m.TextFile(t, "/data/f", uint64(seed), size)
		m.WarmFile(t, "/data/f")
		envL := m.Env(false)
		envS := m.Env(true)
		envS.BufSize = int64(bufRaw)%6000 + 64
		a, err := Run(envL, "/data/f")
		if err != nil {
			return false
		}
		b, err := Run(envS, "/data/f")
		if err != nil {
			return false
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkCount compares the kernel with refCount (the byte-at-a-time loop)
// on data as a whole and split at every point, the second half carrying
// the first half's inWord.
func checkCount(t *testing.T, data []byte) {
	t.Helper()
	want := refCount(data)
	for split := 0; split <= len(data); split++ {
		l1, w1, in := count(data[:split], 0)
		l2, w2, _ := count(data[split:], in)
		if l1+l2 != want.Lines || w1+w2 != want.Words {
			t.Fatalf("count(%q) split at %d = %d lines %d words, want %d %d",
				data, split, l1+l2, w1+w2, want.Lines, want.Words)
		}
	}
}

func TestCountMatchesReference(t *testing.T) {
	// Every byte value, alone, after a word and after a space.
	for c := 0; c < 256; c++ {
		checkCount(t, []byte{byte(c)})
		checkCount(t, []byte{'a', byte(c), 'b'})
		checkCount(t, []byte{' ', byte(c), ' '})
		if got := nonSpace[c] == 0; got != isSpace(byte(c)) {
			t.Errorf("nonSpace[%#x] disagrees with isSpace", c)
		}
	}
	// Random buffers, dense in separators so words are short.
	rng := trace.NewRNG(18)
	alphabet := []byte(" \t\n\v\f\r\x00ab\xff")
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, rng.Int64n(96))
		for i := range data {
			if trial%2 == 0 {
				data[i] = alphabet[rng.Int64n(int64(len(alphabet)))]
			} else {
				data[i] = byte(rng.Uint64())
			}
		}
		checkCount(t, data)
		l, w, s, e := countChunk(data)
		want := refCount(data)
		if l != want.Lines || w != want.Words ||
			s != (len(data) > 0 && !isSpace(data[0])) || e != (len(data) > 0 && !isSpace(data[len(data)-1])) {
			t.Fatalf("countChunk(%q) = %d,%d,%v,%v", data, l, w, s, e)
		}
	}
}

// TestCountLanes drives the eight-at-a-time classifier through every
// length 0..40 at every start offset 0..15 of one backing array — unaligned
// loads, every tail length, the carry across every 8-byte seam — over the
// alphabets a lane formula gets wrong first: nothing but separators, high
// bytes whose low seven bits look like separators, and the control bytes
// either side of each separator range. Then every split of a 64-byte buffer.
func TestCountLanes(t *testing.T) {
	alphabets := []string{
		" \t\n\v\f\r\x00",
		"\x80\x89\x8a\x8d\xa0\xff\x20\x0a",
		"\x01\x08\x0e\x1f\x21\x7f\x80",
	}
	rng := trace.NewRNG(23)
	backing := make([]byte, 15+40)
	for _, alphabet := range alphabets {
		for round := 0; round < 8; round++ {
			for i := range backing {
				backing[i] = alphabet[rng.Int64n(int64(len(alphabet)))]
				if round%2 == 1 && rng.Int64n(4) == 0 {
					backing[i] = ' ' // mixed in, so words start and end
				}
			}
			for start := 0; start <= 15; start++ {
				for n := 0; n <= 40; n++ {
					data := backing[start : start+n]
					want := refCount(data)
					for _, inWord := range []uint8{0, 1} {
						wantWords := want.Words
						if inWord == 1 && n > 0 && !isSpace(data[0]) {
							wantWords-- // the first word began before data
						}
						wantLast := inWord
						if n > 0 {
							wantLast = nonSpace[data[n-1]]
						}
						l, w, last := count(data, inWord)
						if l != want.Lines || w != wantWords || last != wantLast {
							t.Fatalf("count(%q at +%d, %d) = %d lines %d words last %d, want %d %d %d",
								data, start, inWord, l, w, last, want.Lines, wantWords, wantLast)
						}
					}
				}
			}
		}
		buf := make([]byte, 64)
		for i := range buf {
			buf[i] = alphabet[rng.Int64n(int64(len(alphabet)))]
		}
		checkCount(t, buf)
	}
}

var countSink int64

func BenchmarkCount(b *testing.B) {
	page := make([]byte, apptest.PageSize)
	workload.TextGen(7)(3, page)
	for _, impl := range []struct {
		name  string
		count func([]byte) int64
	}{
		{"kernel", func(p []byte) int64 { l, w, _ := count(p, 0); return l + w }},
		{"oracle", func(p []byte) int64 { r := refCount(p); return r.Lines + r.Words }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countSink += impl.count(page)
			}
		})
	}
}
