package sledlib

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"testing"
	"testing/quick"

	"sleds/internal/core"
	"sleds/internal/device"
	"sleds/internal/vfs"
	"sleds/internal/workload"
)

const testPage = 4096

type machine struct {
	k    *vfs.Kernel
	disk device.ID
	tab  *core.Table
}

func newMachine(t testing.TB, cachePages int) *machine {
	t.Helper()
	mem := device.NewMem(device.DefaultMemConfig(0))
	k := vfs.NewKernel(vfs.Config{PageSize: testPage, CachePages: cachePages, MemDevice: mem})
	k.AttachDevice(mem)
	disk := k.AttachDevice(device.NewDisk(device.DefaultDiskConfig(1)))
	if err := k.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	tab := core.NewTable()
	tab.SetMemory(core.Entry{Latency: 175e-9, Bandwidth: 48 * (1 << 20)})
	tab.SetDevice(disk, core.Entry{Latency: 18e-3, Bandwidth: 9 * (1 << 20)})
	return &machine{k: k, disk: disk, tab: tab}
}

func (m *machine) textFile(t testing.TB, path string, seed uint64, size int64) *vfs.File {
	t.Helper()
	if _, err := m.k.Create(path, m.disk, workload.NewText(seed, size, testPage)); err != nil {
		t.Fatal(err)
	}
	f, err := m.k.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// warmTail reads the tail of the file so its pages are resident.
func warmTail(t testing.TB, f *vfs.File, fromPage int64) {
	t.Helper()
	size := f.Size()
	buf := make([]byte, testPage)
	for off := fromPage * testPage; off < size; off += testPage {
		if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	}
}

func collect(t testing.TB, p *Picker) []chunk {
	t.Helper()
	var out []chunk
	for {
		off, n, err := p.NextRead()
		if errors.Is(err, ErrFinished) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, chunk{off: off, n: n})
	}
}

// coversExactlyOnce checks the exactly-once guarantee over [0, size).
func coversExactlyOnce(chunks []chunk, size int64) bool {
	sorted := append([]chunk(nil), chunks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].off < sorted[j].off })
	var pos int64
	for _, c := range sorted {
		if c.off != pos || c.n <= 0 {
			return false
		}
		pos += c.n
	}
	return pos == size
}

func TestPickColdFileIsLinear(t *testing.T) {
	m := newMachine(t, 64)
	f := m.textFile(t, "/d/f", 1, 10*testPage)
	defer f.Close()
	p, err := PickInit(m.k, m.tab, f, Options{BufSize: testPage})
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, p)
	if !coversExactlyOnce(chunks, f.Size()) {
		t.Fatalf("not exactly-once: %v", chunks)
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i].off < chunks[i-1].off {
			t.Fatalf("cold-cache pick not linear at %d: %v", i, chunks)
		}
	}
}

func TestPickWarmTailFirst(t *testing.T) {
	m := newMachine(t, 8)
	f := m.textFile(t, "/d/f", 1, 16*testPage)
	defer f.Close()
	warmTail(t, f, 0) // linear pass leaves pages 8..15 resident

	p, err := PickInit(m.k, m.tab, f, Options{BufSize: testPage})
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, p)
	if !coversExactlyOnce(chunks, f.Size()) {
		t.Fatalf("not exactly-once")
	}
	// The first chunks must be the cached tail (offset >= 8 pages).
	for i := 0; i < 8; i++ {
		if chunks[i].off < 8*testPage {
			t.Fatalf("chunk %d at %d served before cached tail", i, chunks[i].off)
		}
	}
	// And within the cached region, ascending offset.
	for i := 1; i < 8; i++ {
		if chunks[i].off < chunks[i-1].off {
			t.Fatalf("cached chunks not in ascending offset order")
		}
	}
}

func TestPickReducesFaults(t *testing.T) {
	m := newMachine(t, 8)
	f := m.textFile(t, "/d/f", 1, 16*testPage)
	defer f.Close()
	warmTail(t, f, 0)

	// Linear second pass: 16 faults (Figure 3 pathology).
	m.k.ResetRunStats()
	buf := make([]byte, testPage)
	for i := int64(0); i < 16; i++ {
		f.ReadAt(buf, i*testPage)
	}
	linearFaults := m.k.RunStats().Faults

	// Re-warm, then a SLEDs-ordered pass.
	warmTail(t, f, 0)
	p, _ := PickInit(m.k, m.tab, f, Options{BufSize: testPage})
	m.k.ResetRunStats()
	for {
		off, n, err := p.NextRead()
		if errors.Is(err, ErrFinished) {
			break
		}
		f.ReadAt(buf[:n], off)
	}
	p.Finish()
	sledFaults := m.k.RunStats().Faults

	if linearFaults != 16 {
		t.Fatalf("linear faults = %d, want 16", linearFaults)
	}
	if sledFaults != 8 {
		t.Fatalf("SLEDs faults = %d, want 8 (only the evicted head)", sledFaults)
	}
}

func TestNextReadAfterFinish(t *testing.T) {
	m := newMachine(t, 16)
	f := m.textFile(t, "/d/f", 1, 2*testPage)
	defer f.Close()
	p, _ := PickInit(m.k, m.tab, f, Options{})
	p.Finish()
	if _, _, err := p.NextRead(); !errors.Is(err, ErrFinished) {
		t.Fatalf("NextRead after Finish: %v", err)
	}
	if p.Remaining() != 0 {
		t.Fatalf("Remaining after Finish = %d", p.Remaining())
	}
}

func TestChunkSizesBounded(t *testing.T) {
	m := newMachine(t, 16)
	f := m.textFile(t, "/d/f", 1, 5*testPage+100)
	defer f.Close()
	const buf = 3000
	p, _ := PickInit(m.k, m.tab, f, Options{BufSize: buf})
	for _, c := range collect(t, p) {
		if c.n > buf || c.n <= 0 {
			t.Fatalf("chunk size %d out of (0,%d]", c.n, buf)
		}
	}
}

func TestDefaultBufSize(t *testing.T) {
	m := newMachine(t, 64)
	f := m.textFile(t, "/d/f", 1, 100*testPage)
	defer f.Close()
	p, _ := PickInit(m.k, m.tab, f, Options{})
	chunks := collect(t, p)
	if len(chunks) == 0 {
		t.Fatal("no chunks")
	}
	for _, c := range chunks {
		if c.n > 64<<10 {
			t.Fatalf("chunk %d exceeds default 64KiB", c.n)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	m := newMachine(t, 16)
	m.k.CreateEmpty("/d/empty", m.disk)
	f, _ := m.k.Open("/d/empty")
	defer f.Close()
	p, err := PickInit(m.k, m.tab, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.NextRead(); !errors.Is(err, ErrFinished) {
		t.Fatalf("empty file NextRead: %v", err)
	}
}

func TestOptionValidation(t *testing.T) {
	m := newMachine(t, 16)
	f := m.textFile(t, "/d/f", 1, testPage)
	defer f.Close()
	if _, err := PickInit(m.k, m.tab, f, Options{RecordMode: true, RecordSep: '\n', ElementSize: 4}); err == nil {
		t.Fatalf("record+element accepted")
	}
	if _, err := PickInit(m.k, m.tab, f, Options{ElementSize: -2}); err == nil {
		t.Fatalf("negative element size accepted")
	}
	if _, err := PickInit(m.k, m.tab, f, Options{ElementSize: 100, BufSize: 50}); err == nil {
		t.Fatalf("element larger than buffer accepted")
	}
}

func TestRecordAdjustmentAlignsBoundaries(t *testing.T) {
	m := newMachine(t, 8)
	f := m.textFile(t, "/d/f", 1, 16*testPage)
	defer f.Close()
	warmTail(t, f, 0) // tail (pages 8..15) cached

	p, err := PickInit(m.k, m.tab, f, Options{BufSize: testPage, RecordMode: true, RecordSep: '\n'})
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, p)
	if !coversExactlyOnce(chunks, f.Size()) {
		t.Fatalf("record mode broke exactly-once")
	}

	// Read the whole file to check which offsets start records.
	data := make([]byte, f.Size())
	f.ReadAt(data, 0)
	isRecordStart := func(off int64) bool {
		return off == 0 || data[off-1] == '\n'
	}
	// Find the discontinuities of the schedule: any chunk whose offset is
	// not the end of the previously returned chunk must start a record.
	var prevEnd int64 = -1
	for _, c := range chunks {
		if c.off != prevEnd && !isRecordStart(c.off) {
			t.Fatalf("discontinuity at %d does not start a record", c.off)
		}
		prevEnd = c.off + c.n
	}
}

func TestRecordAdjustmentKeepsCheapSideCheap(t *testing.T) {
	// The fragment of a record straddling a cheap->expensive boundary
	// must be pushed to the expensive side: the cheap schedule entries
	// must all be resident pages.
	m := newMachine(t, 8)
	f := m.textFile(t, "/d/f", 1, 16*testPage)
	defer f.Close()
	warmTail(t, f, 0)

	p, _ := PickInit(m.k, m.tab, f, Options{BufSize: testPage, RecordMode: true, RecordSep: '\n'})
	memEntry, _ := m.tab.Memory()
	// Cheap chunks come first under OrderLatency; they must lie within
	// the resident region [8 pages, EOF) possibly trimmed by a record.
	seenCheap := 0
	for _, c := range p.chunks {
		if c.latency == memEntry.Latency {
			seenCheap++
			if c.off < 8*testPage-200 {
				t.Fatalf("cheap chunk at %d reaches deep into evicted head", c.off)
			}
		}
	}
	if seenCheap == 0 {
		t.Fatalf("no cheap chunks found")
	}
}

func TestElementModeAlignment(t *testing.T) {
	m := newMachine(t, 8)
	// File of 13-byte elements? Use 8-byte elements over 16 pages.
	f := m.textFile(t, "/d/f", 1, 16*testPage)
	defer f.Close()
	warmTail(t, f, 0)
	const elem = 520 // deliberately not a divisor of the page size
	p, err := PickInit(m.k, m.tab, f, Options{BufSize: 2 * testPage, ElementSize: elem})
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, p)
	if !coversExactlyOnce(chunks, f.Size()) {
		t.Fatalf("element mode broke exactly-once")
	}
	for i, c := range chunks {
		last := c.off+c.n == f.Size()
		if c.off%elem != 0 {
			t.Fatalf("chunk %d offset %d not element-aligned", i, c.off)
		}
		if !last && c.n%elem != 0 {
			t.Fatalf("interior chunk %d length %d not element-aligned", i, c.n)
		}
	}
}

func TestOrderLinear(t *testing.T) {
	m := newMachine(t, 8)
	f := m.textFile(t, "/d/f", 1, 16*testPage)
	defer f.Close()
	warmTail(t, f, 0)
	p, _ := PickInit(m.k, m.tab, f, Options{BufSize: testPage, Order: OrderLinear})
	chunks := collect(t, p)
	for i := 1; i < len(chunks); i++ {
		if chunks[i].off != chunks[i-1].off+chunks[i-1].n {
			t.Fatalf("linear order not contiguous")
		}
	}
}

func TestOrderReverseLatency(t *testing.T) {
	m := newMachine(t, 8)
	f := m.textFile(t, "/d/f", 1, 16*testPage)
	defer f.Close()
	warmTail(t, f, 0)
	p, _ := PickInit(m.k, m.tab, f, Options{BufSize: testPage, Order: OrderReverseLatency})
	chunks := p.chunks
	for i := 1; i < len(chunks); i++ {
		if chunks[i].latency > chunks[i-1].latency {
			t.Fatalf("reverse order increasing latency")
		}
	}
}

func TestTotalDeliveryTimeWarmVsCold(t *testing.T) {
	// Small file: the cold estimate is dominated by the 18 ms disk
	// latency, the warm one by nanoseconds + memory copy.
	m := newMachine(t, 64)
	f := m.textFile(t, "/d/f", 1, 4*testPage)
	defer f.Close()
	cold, err := TotalDeliveryTime(m.k, m.tab, f.Inode(), core.PlanLinear)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, f) // warm everything
	warm, err := TotalDeliveryTime(m.k, m.tab, f.Inode(), core.PlanLinear)
	if err != nil {
		t.Fatal(err)
	}
	if warm*20 > cold {
		t.Fatalf("warm estimate %v not ≪ cold %v", warm, cold)
	}
}

func TestPickerSLEDsIsCopy(t *testing.T) {
	m := newMachine(t, 16)
	f := m.textFile(t, "/d/f", 1, 4*testPage)
	defer f.Close()
	p, _ := PickInit(m.k, m.tab, f, Options{})
	s := p.SLEDs()
	if len(s) == 0 {
		t.Fatal("no sleds")
	}
	s[0].Latency = -12345
	if p.SLEDs()[0].Latency == -12345 {
		t.Fatalf("SLEDs() leaked internal state")
	}
}

func TestStalenessAfterCacheChange(t *testing.T) {
	// SLEDs are a snapshot (§3.4): a picker built before another process
	// evicts the cache still schedules the stale view, but reads remain
	// correct (just slower). Verify correctness of data under staleness.
	m := newMachine(t, 8)
	f := m.textFile(t, "/d/f", 1, 12*testPage)
	defer f.Close()
	warmTail(t, f, 0)
	p, _ := PickInit(m.k, m.tab, f, Options{BufSize: testPage})

	// Another application wipes the cache.
	g := m.textFile(t, "/d/g", 2, 12*testPage)
	io.Copy(io.Discard, g)
	g.Close()

	want := make([]byte, f.Size())
	f.ReadAt(want, 0)
	got := make([]byte, f.Size())
	for {
		off, n, err := p.NextRead()
		if errors.Is(err, ErrFinished) {
			break
		}
		f.ReadAt(got[off:off+n], off)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stale picker returned wrong data")
	}
}

// Property: for any residency pattern and buffer size, the schedule
// covers the file exactly once, in record mode too.
func TestExactlyOnceProperty(t *testing.T) {
	f := func(pagesRaw, touchRaw, bufRaw uint8, record bool) bool {
		pages := int64(pagesRaw%12) + 1
		m := newMachine(t, 4)
		size := pages*testPage - int64(touchRaw)%500
		if size <= 0 {
			size = 1
		}
		file := m.textFile(t, "/d/f", uint64(pagesRaw), size)
		defer file.Close()
		// Touch an arbitrary stretch.
		start := (int64(touchRaw) % pages) * testPage
		file.ReadAt(make([]byte, 2*testPage), start)

		opts := Options{BufSize: int64(bufRaw)%5000 + 100}
		if record {
			opts.RecordMode = true
			opts.RecordSep = '\n'
		}
		p, err := PickInit(m.k, m.tab, file, opts)
		if err != nil {
			return false
		}
		var chunks []chunk
		for {
			off, n, err := p.NextRead()
			if errors.Is(err, ErrFinished) {
				break
			}
			chunks = append(chunks, chunk{off: off, n: n})
		}
		return coversExactlyOnce(chunks, file.Size())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderString(t *testing.T) {
	if OrderLatency.String() != "latency" || OrderLinear.String() != "linear" ||
		OrderReverseLatency.String() != "reverse-latency" {
		t.Fatal("order names wrong")
	}
}

// Property: under OrderLatency the returned schedule has non-decreasing
// latency estimates, regardless of residency pattern.
func TestLatencyOrderMonotoneProperty(t *testing.T) {
	f := func(pagesRaw, touchA, touchB uint8) bool {
		pages := int64(pagesRaw%16) + 2
		m := newMachine(t, 6)
		file := m.textFile(t, "/d/f", uint64(pagesRaw)+1, pages*testPage)
		defer file.Close()
		// Touch two arbitrary stretches.
		file.ReadAt(make([]byte, testPage), (int64(touchA)%pages)*testPage)
		file.ReadAt(make([]byte, testPage), (int64(touchB)%pages)*testPage)
		p, err := PickInit(m.k, m.tab, file, Options{BufSize: testPage})
		if err != nil {
			return false
		}
		for i := 1; i < len(p.chunks); i++ {
			if p.chunks[i].latency < p.chunks[i-1].latency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordModeCustomSeparator(t *testing.T) {
	// NUL-separated records (find -print0 style): adjustment must align
	// to the chosen separator, not newlines.
	m := newMachine(t, 8)
	data := bytes.Repeat([]byte("record-one\x00record-two\x00"), 16*testPage/22+1)
	data = data[:16*testPage]
	if _, err := m.k.Create("/d/z", m.disk, workloadBytes(data)); err != nil {
		t.Fatal(err)
	}
	f, _ := m.k.Open("/d/z")
	defer f.Close()
	warmTail(t, f, 0)
	p, err := PickInit(m.k, m.tab, f, Options{BufSize: testPage, RecordMode: true, RecordSep: 0})
	if err != nil {
		t.Fatal(err)
	}
	var chunks []chunk
	for {
		off, n, err := p.NextRead()
		if errors.Is(err, ErrFinished) {
			break
		}
		chunks = append(chunks, chunk{off: off, n: n})
	}
	if !coversExactlyOnce(chunks, f.Size()) {
		t.Fatalf("NUL record mode broke exactly-once")
	}
	// Discontinuities must start right after a NUL.
	var prevEnd int64 = -1
	for _, c := range chunks {
		if c.off != prevEnd && c.off != 0 && data[c.off-1] != 0 {
			t.Fatalf("discontinuity at %d does not follow a NUL", c.off)
		}
		prevEnd = c.off + c.n
	}
}

// workloadBytes adapts a byte slice to the test page size.
func workloadBytes(data []byte) *workload.Content {
	return workload.NewBytes(data, testPage)
}

func TestRecordScanCapLeavesBoundary(t *testing.T) {
	// A "record" longer than maxRecordScan: the adjustment gives up and
	// keeps the page-aligned boundary; exactly-once still holds.
	m := newMachine(t, 4)
	data := bytes.Repeat([]byte{'x'}, 4*maxRecordScan) // no separators at all
	if _, err := m.k.Create("/d/x", m.disk, workloadBytes(data)); err != nil {
		t.Fatal(err)
	}
	f, _ := m.k.Open("/d/x")
	defer f.Close()
	warmTail(t, f, 0)
	p, err := PickInit(m.k, m.tab, f, Options{BufSize: testPage, RecordMode: true, RecordSep: '\n'})
	if err != nil {
		t.Fatal(err)
	}
	var chunks []chunk
	for {
		off, n, err := p.NextRead()
		if errors.Is(err, ErrFinished) {
			break
		}
		chunks = append(chunks, chunk{off: off, n: n})
	}
	if !coversExactlyOnce(chunks, f.Size()) {
		t.Fatalf("capped record scan broke exactly-once")
	}
}
