package grepapp

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"sleds/internal/apps/apptest"
	"sleds/internal/trace"
	"sleds/internal/workload"
)

const needle = "xyzzy"

// refGrep is the reference: split materialised content into lines and
// search each.
func refGrep(data []byte, pattern string) []Match {
	var out []Match
	var lineStart int64
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		var line []byte
		if i < 0 {
			line = data
			data = nil
		} else {
			line = data[:i]
			data = data[i+1:]
		}
		if bytes.Contains(line, []byte(pattern)) {
			out = append(out, Match{Offset: lineStart, Line: string(line)})
		}
		lineStart += int64(len(line)) + 1
	}
	return out
}

func sameMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refScanLines is the oracle for matchingLines: the loop both read orders
// ran before grep searched first — split off every line with IndexByte,
// then search it with Contains.
func refScanLines(body, pat []byte, visit func(start int, before int64, line []byte) bool) bool {
	start := 0
	newlinesBefore := int64(0)
	for interior := body; len(interior) > 0; {
		i := bytes.IndexByte(interior, '\n')
		line := interior[:i]
		if bytes.Contains(line, pat) && !visit(start, newlinesBefore, line) {
			return false
		}
		start += i + 1
		newlinesBefore++
		interior = interior[i+1:]
	}
	return true
}

func plantedFile(t testing.TB, m *apptest.Machine, path string, seed uint64, size int64, offsets ...int64) *workload.Content {
	t.Helper()
	c := workload.NewText(seed, size, apptest.PageSize)
	for _, off := range offsets {
		workload.PlantMatch(c, off, needle)
	}
	if _, err := m.K.Create(path, m.Disk, c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLinearFindsPlantedMatches(t *testing.T) {
	m := apptest.New(t, 64)
	c := plantedFile(t, m, "/data/f", 1, 10*apptest.PageSize, 5000, 20000, 35000)
	want := refGrep(c.ReadAll(), needle)
	if len(want) != 3 {
		t.Fatalf("reference found %d matches, want 3", len(want))
	}
	got, err := Run(m.Env(false), "/data/f", needle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(got, want) {
		t.Fatalf("linear grep = %v, want %v", got, want)
	}
}

func TestSLEDsMatchesReferenceWarm(t *testing.T) {
	m := apptest.New(t, 8)
	// Matches everywhere, including page boundaries and both the cached
	// and evicted regions.
	size := int64(20 * apptest.PageSize)
	offsets := []int64{100, apptest.PageSize - 30, 7 * apptest.PageSize, 13*apptest.PageSize + 17, size - 200}
	c := plantedFile(t, m, "/data/f", 2, size, offsets...)
	m.WarmFile(t, "/data/f")
	want := refGrep(c.ReadAll(), needle)
	if len(want) != len(offsets) {
		t.Fatalf("reference found %d matches, want %d", len(want), len(offsets))
	}
	got, err := Run(m.Env(true), "/data/f", needle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(got, want) {
		t.Fatalf("SLEDs grep:\n got %v\nwant %v", got, want)
	}
}

func TestSLEDsOutputSortedByOffset(t *testing.T) {
	m := apptest.New(t, 8)
	size := int64(16 * apptest.PageSize)
	plantedFile(t, m, "/data/f", 3, size, 1000, 30000, 60000)
	m.WarmFile(t, "/data/f")
	got, err := Run(m.Env(true), "/data/f", needle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Offset < got[i-1].Offset {
			t.Fatalf("matches not sorted: %v", got)
		}
	}
}

func TestNoMatches(t *testing.T) {
	m := apptest.New(t, 16)
	m.TextFile(t, "/data/f", 4, 4*apptest.PageSize)
	for _, sleds := range []bool{false, true} {
		got, err := Run(m.Env(sleds), "/data/f", needle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("phantom matches (sleds=%v): %v", sleds, got)
		}
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	m := apptest.New(t, 16)
	m.TextFile(t, "/data/f", 4, apptest.PageSize)
	if _, err := Run(m.Env(false), "/data/f", "", Options{}); err == nil {
		t.Fatalf("empty pattern accepted")
	}
}

func TestFirstOnlyLinearStopsEarly(t *testing.T) {
	m := apptest.New(t, 64)
	size := int64(32 * apptest.PageSize)
	plantedFile(t, m, "/data/f", 5, size, 2*apptest.PageSize)
	m.K.ResetRunStats()
	env := m.Env(false)
	env.BufSize = apptest.PageSize
	got, err := Run(env, "/data/f", needle, Options{FirstOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("first-only returned %d matches", len(got))
	}
	// Must not have read the whole 32-page file: the match sits in page 2.
	if faults := m.K.RunStats().Faults; faults > 4 {
		t.Fatalf("first-only faulted %d pages; did not stop early", faults)
	}
}

func TestFirstOnlySLEDsAvoidsIOWhenMatchCached(t *testing.T) {
	m := apptest.New(t, 8)
	size := int64(16 * apptest.PageSize)
	// Match in the tail, which stays cached after a warm pass.
	plantedFile(t, m, "/data/f", 6, size, 14*apptest.PageSize)
	m.WarmFile(t, "/data/f")

	m.K.ResetRunStats()
	got, err := Run(m.Env(true), "/data/f", needle, Options{FirstOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("SLEDs -q found %d matches", len(got))
	}
	if faults := m.K.RunStats().Faults; faults != 0 {
		t.Fatalf("SLEDs -q faulted %d pages despite cached match", faults)
	}

	// The non-SLEDs run must fault its way from the file head instead.
	m.WarmFile(t, "/data/f")
	m.K.ResetRunStats()
	if _, err := Run(m.Env(false), "/data/f", needle, Options{FirstOnly: true}); err != nil {
		t.Fatal(err)
	}
	if faults := m.K.RunStats().Faults; faults == 0 {
		t.Fatalf("linear -q run faulted 0 pages; expected head re-fetch")
	}
}

func TestMatchSpanningChunkBoundary(t *testing.T) {
	// Plant the needle so it straddles a page boundary: out-of-order
	// chunks must reassemble the line before matching.
	m := apptest.New(t, 8)
	size := int64(12 * apptest.PageSize)
	c := workload.NewText(7, size, apptest.PageSize)
	// Custom line crossing the boundary between pages 5 and 6 with the
	// needle exactly on the boundary.
	boundary := int64(6 * apptest.PageSize)
	line := make([]byte, 64)
	for i := range line {
		line[i] = 'q'
	}
	line[0] = '\n'
	line[63] = '\n'
	copy(line[30:], needle) // needle at bytes 30..34 of the line
	if err := c.TryInsertAt(boundary-32, line); err != nil {
		t.Fatal(err)
	}
	if _, err := m.K.Create("/data/f", m.Disk, c); err != nil {
		t.Fatal(err)
	}
	m.WarmFile(t, "/data/f")
	env := m.Env(true)
	env.BufSize = apptest.PageSize // force chunk boundary at the page edge
	got, err := Run(env, "/data/f", needle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("boundary-spanning match found %d times, want 1", len(got))
	}
}

func TestSLEDsFasterThanLinearWarm(t *testing.T) {
	m := apptest.New(t, 8)
	size := int64(24 * apptest.PageSize)
	plantedFile(t, m, "/data/f", 8, size, size/2)
	m.WarmFile(t, "/data/f")

	start := m.K.Clock.Now()
	Run(m.Env(false), "/data/f", needle, Options{})
	without := m.K.Clock.Now() - start

	m.WarmFile(t, "/data/f")
	start = m.K.Clock.Now()
	Run(m.Env(true), "/data/f", needle, Options{})
	with := m.K.Clock.Now() - start

	if with >= without {
		t.Fatalf("SLEDs grep (%v) not faster than linear (%v) on warm cache", with, without)
	}
}

func TestSmallFileCPUOverhead(t *testing.T) {
	// For a fully cached small file, the SLEDs variant should be slightly
	// SLOWER (all CPU), reproducing the paper's small-file overhead.
	m := apptest.New(t, 64)
	size := int64(4 * apptest.PageSize)
	plantedFile(t, m, "/data/f", 9, size, 1000)
	m.WarmFile(t, "/data/f") // fully cached

	start := m.K.Clock.Now()
	Run(m.Env(false), "/data/f", needle, Options{})
	without := m.K.Clock.Now() - start

	start = m.K.Clock.Now()
	Run(m.Env(true), "/data/f", needle, Options{})
	with := m.K.Clock.Now() - start

	if with <= without {
		t.Fatalf("SLEDs grep (%v) unexpectedly faster than linear (%v) on a fully cached small file", with, without)
	}
}

func TestMergerReassemblesArbitraryOrder(t *testing.T) {
	// Every line holds the token, so "the lines that can hold the pattern"
	// is every line: interior lines reach emit through the search, the rest
	// across chunk edges, and each must arrive exactly once.
	text := "alpha-k\nbravo-k\ncharlie-k\ndelta-k\necho-k\nfoxtrot-k\n-k\n"
	// Feed the merger 7-byte chunks in a scrambled order.
	var lines []string
	m := newMerger([]byte("-k"), func(off, _, _ int64, line []byte) bool {
		lines = append(lines, string(line))
		return true
	})
	var chunks []int64
	for off := int64(0); off < int64(len(text)); off += 7 {
		chunks = append(chunks, off)
	}
	order := []int{3, 0, 5, 1, 7, 4, 2, 6}
	if len(order) != len(chunks) {
		t.Fatalf("%d chunks, order names %d", len(chunks), len(order))
	}
	for _, i := range order {
		off := chunks[i]
		end := off + 7
		if end > int64(len(text)) {
			end = int64(len(text))
		}
		if !m.add(off, []byte(text[off:end])) {
			t.Fatal("merger stopped")
		}
	}
	m.finish(int64(len(text)))
	want := []string{"alpha-k", "bravo-k", "charlie-k", "delta-k", "echo-k", "foxtrot-k", "-k"}
	if len(lines) != len(want) {
		t.Fatalf("merger emitted %v, want %v", lines, want)
	}
	seen := map[string]int{}
	for _, l := range lines {
		seen[l]++
	}
	for _, w := range want {
		if seen[w] != 1 {
			t.Fatalf("line %q emitted %d times", w, seen[w])
		}
	}
}

func TestMergerSingleLineNoSeparator(t *testing.T) {
	var lines []string
	m := newMerger([]byte("cd"), func(off, _, _ int64, line []byte) bool {
		lines = append(lines, string(line))
		return true
	})
	m.add(3, []byte("def"))
	m.add(0, []byte("abc"))
	m.finish(6)
	if len(lines) != 1 || lines[0] != "abcdef" {
		t.Fatalf("merger emitted %v", lines)
	}
}

// Property: SLEDs grep finds exactly the reference matches for arbitrary
// residency states, buffer sizes, and match placements.
func TestAgreementProperty(t *testing.T) {
	f := func(seed uint16, sizeRaw uint16, posRaw uint16, bufRaw uint8) bool {
		m := apptest.New(t, 4)
		size := int64(sizeRaw)%30000 + 2000
		pos := int64(posRaw) % size
		c := workload.NewText(uint64(seed), size, apptest.PageSize)
		workload.PlantMatch(c, pos, needle)
		if _, err := m.K.Create("/data/f", m.Disk, c); err != nil {
			return false
		}
		m.WarmFile(t, "/data/f")
		want := refGrep(c.ReadAll(), needle)

		env := m.Env(true)
		env.BufSize = int64(bufRaw)%5000 + 128
		got, err := Run(env, "/data/f", needle, Options{})
		if err != nil {
			return false
		}
		return sameMatches(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLongLinesAcrossManyChunks(t *testing.T) {
	// A single line spanning several chunks, needle in the middle.
	m := apptest.New(t, 8)
	var sb strings.Builder
	sb.WriteString("short\n")
	long := strings.Repeat("z", 3*apptest.PageSize)
	sb.WriteString(long[:apptest.PageSize] + needle + long[apptest.PageSize:])
	sb.WriteString("\ntail\n")
	data := []byte(sb.String())
	if _, err := m.K.Create("/data/f", m.Disk, workload.NewBytes(data, apptest.PageSize)); err != nil {
		t.Fatal(err)
	}
	m.WarmFile(t, "/data/f")
	env := m.Env(true)
	env.BufSize = apptest.PageSize / 2
	got, err := Run(env, "/data/f", needle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("long-line match found %d times, want 1", len(got))
	}
	if got[0].Offset != 6 {
		t.Fatalf("long-line match offset %d, want 6", got[0].Offset)
	}
}

// A file that is one 4 MiB line: every chunk extends the open line, and the
// merger must extend it in place. What the merge allocates is bounded by a
// multiple of the file size (append's growth series), where recopying the
// line per chunk would allocate chunks/2 times the file size — 128x here.
func TestLongLineMergeIsLinear(t *testing.T) {
	const size, chunk = 4 << 20, 16 << 10
	data := bytes.Repeat([]byte{'z'}, size)
	copy(data[size/2:], needle)

	var lines int
	m := newMerger([]byte(needle), func(lineStart, _, _ int64, line []byte) bool {
		if lineStart != 0 || !bytes.Equal(line, data) {
			t.Errorf("emitted line at %d, %d bytes; want the whole file at 0", lineStart, len(line))
		}
		lines++
		return true
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < size; off += chunk {
		if !m.add(int64(off), data[off:off+chunk]) {
			t.Fatal("merger stopped")
		}
	}
	m.finish(size)
	runtime.ReadMemStats(&after)
	if lines != 1 {
		t.Fatalf("one-line file emitted %d lines", lines)
	}
	if copied := after.TotalAlloc - before.TotalAlloc; copied > 8*size {
		t.Fatalf("merging a %d-byte line in %d-byte chunks allocated %d bytes (%.1fx the file): not linear",
			size, chunk, copied, float64(copied)/size)
	}

	// End to end, both read orders.
	mach := apptest.New(t, 8)
	if _, err := mach.K.Create("/data/oneline", mach.Disk, workload.NewBytes(data, apptest.PageSize)); err != nil {
		t.Fatal(err)
	}
	for _, sleds := range []bool{false, true} {
		got, err := Run(mach.Env(sleds), "/data/oneline", needle, Options{LineNumbers: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Offset != 0 || got[0].LineNo != 1 || len(got[0].Line) != size {
			t.Fatalf("sleds=%v: one-line file matched %d times", sleds, len(got))
		}
	}
}

// refGrepN computes reference line numbers.
func refGrepN(data []byte, pattern string) []Match {
	out := refGrep(data, pattern)
	for i := range out {
		out[i].LineNo = 1 + int64(bytes.Count(data[:out[i].Offset], []byte{'\n'}))
	}
	return out
}

func TestLineNumbersLinear(t *testing.T) {
	m := apptest.New(t, 64)
	c := plantedFile(t, m, "/data/f", 21, 6*apptest.PageSize, 100, 9000, 20000)
	want := refGrepN(c.ReadAll(), needle)
	got, err := Run(m.Env(false), "/data/f", needle, Options{LineNumbers: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(got, want) {
		t.Fatalf("-n linear:\n got %v\nwant %v", got, want)
	}
	for _, g := range got {
		if g.LineNo <= 0 {
			t.Fatalf("missing line number: %+v", g)
		}
	}
}

func TestLineNumbersSLEDsOutOfOrder(t *testing.T) {
	// The hard case the paper calls out: -n with out-of-order reads.
	m := apptest.New(t, 8)
	size := int64(20 * apptest.PageSize)
	offsets := []int64{50, apptest.PageSize - 10, 9*apptest.PageSize + 5, size - 300}
	c := plantedFile(t, m, "/data/f", 22, size, offsets...)
	m.WarmFile(t, "/data/f") // tail cached -> schedule is out of order
	want := refGrepN(c.ReadAll(), needle)
	got, err := Run(m.Env(true), "/data/f", needle, Options{LineNumbers: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(got, want) {
		t.Fatalf("-n SLEDs:\n got %v\nwant %v", got, want)
	}
}

func TestLineNumbersOffByDefault(t *testing.T) {
	m := apptest.New(t, 16)
	plantedFile(t, m, "/data/f", 23, 2*apptest.PageSize, 1000)
	for _, sleds := range []bool{false, true} {
		got, err := Run(m.Env(sleds), "/data/f", needle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range got {
			if g.LineNo != 0 {
				t.Fatalf("line number set without -n (sleds=%v): %+v", sleds, g)
			}
		}
	}
}

// Property: SLEDs -n agrees with the reference for arbitrary sizes,
// buffers and match positions under heavy eviction.
func TestLineNumbersAgreementProperty(t *testing.T) {
	f := func(seed uint16, sizeRaw uint16, posRaw uint16, bufRaw uint8) bool {
		m := apptest.New(t, 4)
		size := int64(sizeRaw)%30000 + 2000
		pos := int64(posRaw) % size
		c := workload.NewText(uint64(seed), size, apptest.PageSize)
		workload.PlantMatch(c, pos, needle)
		if _, err := m.K.Create("/data/f", m.Disk, c); err != nil {
			return false
		}
		m.WarmFile(t, "/data/f")
		want := refGrepN(c.ReadAll(), needle)
		env := m.Env(true)
		env.BufSize = int64(bufRaw)%5000 + 128
		got, err := Run(env, "/data/f", needle, Options{LineNumbers: true})
		if err != nil {
			return false
		}
		return sameMatches(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkBothOrders greps data for pattern in both read orders — linear, and
// SLEDs with the file's tail cache-warm so chunks arrive out of order — at
// the given buffer size, with and without -n and under -q, against refGrep
// and refGrepN.
func checkBothOrders(t *testing.T, m *apptest.Machine, path string, data []byte, pattern string, bufSize int64) {
	t.Helper()
	if _, err := m.K.Create(path, m.Disk, workload.NewBytes(data, apptest.PageSize)); err != nil {
		t.Fatal(err)
	}
	m.WarmFile(t, path)
	want := refGrepN(data, pattern)
	plain := refGrep(data, pattern)
	for _, sleds := range []bool{false, true} {
		env := m.Env(sleds)
		env.BufSize = bufSize
		got, err := Run(env, path, pattern, Options{LineNumbers: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(got, want) {
			t.Fatalf("%q for %q, sleds=%v buf=%d, -n:\n got %v\nwant %v", data, pattern, sleds, bufSize, got, want)
		}
		got, err = Run(env, path, pattern, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(got, plain) {
			t.Fatalf("%q for %q, sleds=%v buf=%d:\n got %v\nwant %v", data, pattern, sleds, bufSize, got, plain)
		}
		got, err = Run(env, path, pattern, Options{FirstOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case len(plain) == 0 && len(got) != 0:
			t.Fatalf("%q for %q, sleds=%v buf=%d: -q found %v", data, pattern, sleds, bufSize, got)
		case len(plain) == 0:
		case len(got) != 1:
			t.Fatalf("%q for %q, sleds=%v buf=%d: -q returned %d matches", data, pattern, sleds, bufSize, len(got))
		case !sleds && got[0] != plain[0]:
			// Linear -q stops at the first match in file order.
			t.Fatalf("%q for %q, buf=%d: linear -q stopped at %v, want %v", data, pattern, bufSize, got[0], plain[0])
		case sleds:
			// SLEDs -q stops at the first in arrival order: one of them.
			found := false
			for _, w := range plain {
				found = found || got[0] == w
			}
			if !found {
				t.Fatalf("%q for %q, buf=%d: SLEDs -q stopped at %v, not a reference match", data, pattern, bufSize, got[0])
			}
		}
	}
}

// TestSearchFirstEdges pins what searching a chunk before splitting it
// could get wrong: a pattern that only exists across a line break, two hits
// on one line, and hits on the first and last line of a chunk's body and on
// the line the next chunk's first fragment closes — at buffer sizes that
// put those lines everywhere, down to every line being a carried partial.
func TestSearchFirstEdges(t *testing.T) {
	m := apptest.New(t, 4)
	text := []byte("abab first\nplain\nabab twice abab\nplain again\n\nlast of body abab\ncarried over ab" +
		"ab tail\nb\nabab")
	n := 0
	for _, pattern := range []string{"abab", "ab\nab", "\n", "n\np", "abab\n", "b"} {
		for _, buf := range []int64{1, 7, int64(len(pattern)) - 1, 16, 64 << 10} {
			if buf <= 0 {
				continue
			}
			n++
			checkBothOrders(t, m, fmt.Sprintf("/data/edge%d", n), text, pattern, buf)
		}
	}
	// Chunk bodies that start and end on a matching line, and a chunk edge
	// inside a match: 16-byte lines, buffers around a line and a half.
	var grid []byte
	for i := 0; i < 40; i++ {
		if i%3 == 0 {
			grid = append(grid, "...needle-xy...\n"...)
		} else {
			grid = append(grid, "...............\n"...)
		}
	}
	for _, buf := range []int64{15, 16, 17, 23, 24, 32, 48} {
		n++
		checkBothOrders(t, m, fmt.Sprintf("/data/edge%d", n), grid, "needle-xy", buf)
	}
}

// TestMatchingLinesMatchesOracle compares the search-first walk with the
// split-first loop it replaced over a two-letter alphabet plus '\n', so
// most lines match, many twice, and the newline count is exercised on every
// visit; then the same texts through both read orders.
func TestMatchingLinesMatchesOracle(t *testing.T) {
	type visit struct {
		start  int
		before int64
		line   string
	}
	collect := func(walk func(body, pat []byte, visit func(int, int64, []byte) bool) bool, body, pat []byte, stopAt int) ([]visit, bool) {
		var out []visit
		done := walk(body, pat, func(start int, before int64, line []byte) bool {
			out = append(out, visit{start, before, string(line)})
			return len(out) != stopAt
		})
		return out, done
	}
	rng := trace.NewRNG(23)
	alphabet := []byte("ab\n")
	patterns := []string{"a", "ab", "ba", "aab", "abab", "a\nb", "\n"}
	m := apptest.New(t, 4)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, rng.Int64n(120))
		for i := range data {
			data[i] = alphabet[rng.Int64n(int64(len(alphabet)))]
		}
		body := data[:bytes.LastIndexByte(data, '\n')+1]
		pat := []byte(patterns[trial%len(patterns)])
		for _, stopAt := range []int{0, 1, 2} {
			got, gotDone := collect(matchingLines, body, pat, stopAt)
			want, wantDone := collect(refScanLines, body, pat, stopAt)
			if gotDone != wantDone || len(got) != len(want) {
				t.Fatalf("matchingLines(%q, %q) stop at %d: %v %v, oracle %v %v", body, pat, stopAt, got, gotDone, want, wantDone)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("matchingLines(%q, %q) visit %d = %+v, oracle %+v", body, pat, i, got[i], want[i])
				}
			}
		}
		if trial%5 == 0 && len(data) > 0 {
			checkBothOrders(t, m, fmt.Sprintf("/data/dense%d", trial), data, string(pat), rng.Int64n(12)+1)
		}
	}
}

func TestMatchingLinesAllocsZero(t *testing.T) {
	body := scanLinesInput(100)
	pat := []byte(needle)
	var visits int
	if n := testing.AllocsPerRun(20, func() {
		matchingLines(body, pat, func(int, int64, []byte) bool { visits++; return true })
	}); n != 0 {
		t.Fatalf("matchingLines allocates %v times per body, want 0", n)
	}
	if visits == 0 {
		t.Fatal("no line visited")
	}
}

// scanLinesInput is 64 KiB of TextGen text cut back to whole lines, with
// the needle spliced into every nth line (n = 0: absent).
func scanLinesInput(nth int) []byte {
	buf := workload.NewText(7, 64<<10, apptest.PageSize).ReadAll()
	body := buf[:bytes.LastIndexByte(buf, '\n')+1]
	line := 0
	for start := 0; start < len(body); line++ {
		end := start + bytes.IndexByte(body[start:], '\n')
		if nth > 0 && line%nth == 0 && end-start > len(needle) {
			copy(body[start+(end-start-len(needle))/2:], needle)
		}
		start = end + 1
	}
	return body
}

var scanLinesSink int

func BenchmarkScanLines(b *testing.B) {
	for _, in := range []struct {
		name string
		nth  int
	}{{"absent", 0}, {"every100th", 100}} {
		body, pat := scanLinesInput(in.nth), []byte(needle)
		for _, impl := range []struct {
			name string
			walk func(body, pat []byte, visit func(int, int64, []byte) bool) bool
		}{{"kernel", matchingLines}, {"oracle", refScanLines}} {
			b.Run(impl.name+"/"+in.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.walk(body, pat, func(start int, _ int64, _ []byte) bool {
						scanLinesSink += start
						return true
					})
				}
			})
		}
	}
}
