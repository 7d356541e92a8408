// Package grepapp is the modified grep(1) of the paper's §4.3.
//
// grep needed the most extensive changes of the paper's utilities (560 of
// 1930 lines): reading out of order means lines arrive in fragments, and
// "unless the user chooses not to output the matches, the result will have
// to be output to stdout in the order that they appear in the file. To
// deal with this, we have to store a match in a linked list when
// traversing the data file in the order recommended by SLEDs. We sort the
// matches in the end by their offset in the file and then dump them."
//
// The SLEDs variant here does exactly that, with the full out-of-order
// line-reassembly machinery: chunks arriving in pick order are merged into
// contiguous segments; a line straddling a segment boundary is checked
// when the two sides meet; matches carry their file offsets and are sorted
// before being returned.
package grepapp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"sleds/internal/apps/appenv"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/sledlib"
	"sleds/internal/vfs"
)

// Modelled CPU costs: grep's line scan is heavier than wc's byte loop, and
// the SLEDs variant pays extra for record management and data copying (the
// paper: "The increase in execution time for small files is all CPU
// time... due to the additional complexity of record management with
// SLEDs, and to more data copying").
const (
	scanRate       = 25 * float64(1<<20)
	sledsScanRate  = 19 * float64(1<<20)
	chunkOverhead  = 40 * simclock.Microsecond
	defaultBufSize = 64 << 10
)

var newline = []byte{'\n'}

// Match is one matching line.
type Match struct {
	Offset int64 // byte offset of the line start in the file
	Line   string
	// LineNo is the 1-based line number, filled when Options.LineNumbers
	// is set (grep -n); 0 otherwise.
	LineNo int64

	// Line-number bookkeeping for the out-of-order path: the global line
	// number is anchor-prefix + delta + 1, resolved once every chunk's
	// newline count is known (see resolveLineNumbers).
	anchorOff   int64
	anchorDelta int64
}

// Options configures a grep run.
type Options struct {
	// FirstOnly is the -q mode: stop at the first match, output nothing.
	FirstOnly bool
	// LineNumbers computes 1-based line numbers for every match (-n).
	// The paper notes that -n (among others) "had to be reimplemented"
	// for the SLEDs grep: line numbers are global, so out-of-order
	// chunks each report their newline counts and matches are resolved
	// against the prefix sums at the end.
	LineNumbers bool
}

// Run searches the file at path for the literal pattern: the synchronous
// driver of a Scan, every read completing in place on the kernel's clock.
func Run(env *appenv.Env, path, pattern string, opts Options) ([]Match, error) {
	s := NewScan(env, path, pattern, opts)
	if err := iosched.RunProgram(env.K, s); err != nil {
		return nil, err
	}
	return s.Matches(), nil
}

// Scan is one grep run written as a state machine (an iosched.Program):
// each Step takes the outcome of the read it asked for last, scans the
// chunk, charges the scan's CPU to the kernel's clock and says which read
// it wants next. It never performs a read itself, so the same machine runs
// to completion in place under Run and suspends on queued devices as one
// stream of an iosched.Engine (AddStream).
//
// The one I/O it does issue directly is sledlib.PickInit's record-boundary
// adjustment, inside the first Step. That reads only the cheap side of
// each SLED boundary — client-cached pages, which complete in place; were
// it ever to reach a queued device, vfs's must-not-block panic would
// surface as this stream's error, not as a wrong schedule.
type Scan struct {
	env  *appenv.Env
	path string
	pat  []byte
	opts Options

	f       *vfs.File // nil until the first Step opens it
	buf     []byte    // the outstanding read's buffer, held across reads
	matches []Match

	// Linear scan: the next chunk's offset, and the open line carried between
	// chunks (it ends at pos) with, kept under -n only, its number.
	pos     int64
	partial []byte
	lineNo  int64

	// SLEDs scan: the pick schedule, the chunk [off, off+n) being read, the
	// out-of-order reassembly, and per chunk its newline count (-n only).
	picker    *sledlib.Picker
	off, n    int64
	m         *merger
	chunkRecs []chunkRec
	stopped   bool // -q: a match was seen
}

// chunkRec records one chunk's extent and newline count so -n can build
// global prefix sums once every chunk has been seen.
type chunkRec struct {
	off, end, newlines int64
}

// NewScan prepares a grep of the file at path for the literal pattern; the
// file is opened by the first Step.
func NewScan(env *appenv.Env, path, pattern string, opts Options) *Scan {
	return &Scan{env: env, path: path, pat: []byte(pattern), opts: opts}
}

// Matches returns what the scan found, in file order; valid once the scan
// has exited without error.
func (s *Scan) Matches() []Match { return s.matches }

// Step implements iosched.Program.
func (s *Scan) Step(_ *iosched.Handle, prev iosched.Result) iosched.Op {
	switch {
	case s.f == nil:
		return s.open()
	case s.env.UseSLEDs:
		return s.runSLEDs(prev)
	default:
		return s.runLinear(prev)
	}
}

// open validates the run, opens the file and asks for the first read.
func (s *Scan) open() iosched.Op {
	if len(s.pat) == 0 {
		return iosched.Exit(fmt.Errorf("grepapp: empty pattern"))
	}
	f, err := s.env.K.Open(s.path)
	if err != nil {
		return iosched.Exit(err)
	}
	s.f = f
	if !s.env.UseSLEDs {
		bufSize := s.env.BufSize
		if bufSize <= 0 {
			bufSize = defaultBufSize
		}
		s.buf = make([]byte, bufSize)
		s.lineNo = 1
		return iosched.Read(s.f, s.buf)
	}
	s.picker, err = sledlib.PickInit(s.env.K, s.env.Table, f, sledlib.Options{
		BufSize:    s.env.BufSize,
		RecordMode: true,
		RecordSep:  '\n',
	})
	if err != nil {
		return s.exit(err)
	}
	s.m = newMerger(s.pat, s.emit)
	return s.nextPick()
}

// exit releases the file and ends the stream.
func (s *Scan) exit(err error) iosched.Op {
	if s.picker != nil {
		s.picker.Finish()
	}
	s.f.Close()
	return iosched.Exit(err)
}

// matchingLines calls visit for every line of body that contains pat, in
// order, with the line's index in body, the newlines of body before it and
// its bytes; it reports false as soon as visit does. body is whole lines,
// each closed by its '\n'. It searches first and splits second: bytes.Index
// over the rest of body, the hit's enclosing line, then on from that line's
// newline — so a line with two hits is visited once and the lines between
// hits are counted, never split. No line holds a pattern with a '\n' in it.
//
// TestMatchingLinesAllocsZero pins it at 0 allocs.
func matchingLines(body, pat []byte, visit func(start int, before int64, line []byte) bool) bool {
	if bytes.IndexByte(pat, '\n') >= 0 {
		return true
	}
	var before int64
	for from := 0; ; {
		i := bytes.Index(body[from:], pat)
		if i < 0 {
			return true
		}
		hit := from + i
		start := from + bytes.LastIndexByte(body[from:hit], '\n') + 1
		end := hit + bytes.IndexByte(body[hit:], '\n')
		before += int64(bytes.Count(body[from:start], newline))
		if !visit(start, before, body[start:end]) {
			return false
		}
		from = end + 1
		before++ // the visited line's own newline
	}
}

// runLinear is stock grep: one cursor read per step. A chunk's first fragment
// closes the carried line, its whole lines are searched as one body, its last
// fragment is carried on. In -q mode it stops reading at the first match.
func (s *Scan) runLinear(prev iosched.Result) iosched.Op {
	chunk := s.buf[:prev.N]
	s.env.ChargeCPUBytes(int64(prev.N), scanRate)
	if len(s.partial) > 0 {
		if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
			lineStart := s.pos - int64(len(s.partial))
			s.partial = append(s.partial, chunk[:i]...)
			if bytes.Contains(s.partial, s.pat) && !s.record(lineStart, s.lineNo, s.partial) {
				return s.exit(nil)
			}
			s.partial = s.partial[:0]
			s.lineNo++
			s.pos += int64(i) + 1
			chunk = chunk[i+1:]
		}
	}
	// Now no line is open and pos is a line start, or body is empty.
	body := chunk[:bytes.LastIndexByte(chunk, '\n')+1]
	if !matchingLines(body, s.pat, func(start int, before int64, line []byte) bool {
		return s.record(s.pos+int64(start), s.lineNo+before, line)
	}) {
		return s.exit(nil)
	}
	if s.opts.LineNumbers {
		s.lineNo += int64(bytes.Count(body, newline))
	}
	s.partial = append(s.partial, chunk[len(body):]...)
	s.pos += int64(len(chunk))
	if prev.Err == nil {
		return iosched.Read(s.f, s.buf)
	}
	if prev.Err != io.EOF {
		return s.exit(prev.Err)
	}
	if len(s.partial) > 0 && bytes.Contains(s.partial, s.pat) {
		s.record(s.pos-int64(len(s.partial)), s.lineNo, s.partial)
	}
	return s.exit(nil)
}

// record keeps a linear-scan line as a match; false ends the scan (-q).
func (s *Scan) record(lineStart, lineNo int64, line []byte) bool {
	m := Match{Offset: lineStart, Line: string(line)}
	if s.opts.LineNumbers {
		m.LineNo = lineNo
	}
	s.matches = append(s.matches, m)
	return !s.opts.FirstOnly
}

// segment is a contiguous stretch of the file whose interior lines have
// been processed; only the partial lines at its edges are retained.
type segment struct {
	start, end int64
	// hasSep reports whether any record separator was seen inside. When
	// false, head holds the segment's entire unprocessed bytes and tail
	// is nil.
	hasSep bool
	head   []byte // bytes before the first separator
	tail   []byte // bytes after the last separator
	// tailAnchor is a chunk-boundary offset with no newlines between it
	// and the open tail line's start; it lets -n resolve the global line
	// number of a line that completes across a merge.
	tailAnchor int64
}

// merger reassembles out-of-order chunks into segments and emits every
// complete line that can hold pat exactly once.
type merger struct {
	byStart map[int64]*segment
	byEnd   map[int64]*segment
	pat     []byte
	// emit receives a chunk's interior lines that hold pat and every line
	// closed across a chunk edge (it does its own matching): the line's
	// offset, the anchor (a chunk boundary) and delta (newlines from the
	// anchor to the line within the anchor's chunk), and the bytes.
	// Returning false stops the scan.
	emit func(lineStart, anchorOff, anchorDelta int64, line []byte) bool
}

func newMerger(pat []byte, emit func(lineStart, anchorOff, anchorDelta int64, line []byte) bool) *merger {
	return &merger{byStart: map[int64]*segment{}, byEnd: map[int64]*segment{}, pat: pat, emit: emit}
}

// add processes chunk data covering [off, off+len(data)) and merges it
// with adjacent segments. Returns false if the emit callback stopped.
func (m *merger) add(off int64, data []byte) bool {
	seg := &segment{start: off, end: off + int64(len(data))}
	first := bytes.IndexByte(data, '\n')
	if first < 0 {
		seg.head = append([]byte(nil), data...)
	} else {
		seg.hasSep = true
		seg.head = append([]byte(nil), data[:first]...)
		last := bytes.LastIndexByte(data, '\n')
		seg.tail = append([]byte(nil), data[last+1:]...)
		// Every newline of the chunk precedes the open tail, so the chunk's
		// end is a valid anchor with delta 0.
		seg.tailAnchor = seg.end
		// Interior complete lines; the first separator precedes them all.
		if !matchingLines(data[first+1:last+1], m.pat, func(start int, before int64, line []byte) bool {
			return m.emit(off+int64(first+1+start), off, 1+before, line)
		}) {
			return false
		}
	}
	return m.insert(seg)
}

// insert places seg, merging left and right neighbours.
func (m *merger) insert(seg *segment) bool {
	if left, ok := m.byEnd[seg.start]; ok {
		delete(m.byEnd, left.end)
		delete(m.byStart, left.start)
		var cont bool
		seg, cont = m.mergePair(left, seg)
		if !cont {
			return false
		}
	}
	if right, ok := m.byStart[seg.end]; ok {
		delete(m.byStart, right.start)
		delete(m.byEnd, right.end)
		var cont bool
		seg, cont = m.mergePair(seg, right)
		if !cont {
			return false
		}
	}
	m.byStart[seg.start] = seg
	m.byEnd[seg.end] = seg
	return true
}

// mergePair merges adjacent segments a (left) and b (right), emitting the
// line that straddles their boundary if it is now complete. Both are spent
// (insert unlinked them), so a's open line grows in its own buffer: a run of
// ascending newline-free chunks costs amortised appends, not a recopy each.
func (m *merger) mergePair(a, b *segment) (*segment, bool) {
	out := &segment{start: a.start, end: b.end, hasSep: a.hasSep || b.hasSep,
		head: a.head, tail: b.tail, tailAnchor: b.tailAnchor}
	joined := append(a.tailBytes(), b.head...)
	switch {
	case a.hasSep && b.hasSep:
		if !m.emit(a.end-int64(len(a.tail)), a.tailAnchor, 0, joined) {
			return out, false
		}
	case a.hasSep:
		out.tail, out.tailAnchor = joined, a.tailAnchor
	default: // a is all open line: b's tail (none if b has no separator) stands
		out.head = joined
	}
	return out, true
}

// tailBytes returns the open line at the segment's right edge.
func (s *segment) tailBytes() []byte {
	if s.hasSep {
		return s.tail
	}
	return s.head
}

// finish emits the lines still held at segment edges once the whole file
// has been covered: the first line (head of the segment starting at 0) and
// the unterminated last line, if any.
func (m *merger) finish(fileSize int64) {
	seg, ok := m.byStart[0]
	if !ok || seg.end != fileSize {
		// The schedule did not cover the file; nothing sensible to emit.
		return
	}
	if seg.hasSep {
		if !m.emit(0, 0, 0, seg.head) {
			return
		}
		if len(seg.tail) > 0 {
			m.emit(seg.end-int64(len(seg.tail)), seg.tailAnchor, 0, seg.tail)
		}
	} else if len(seg.head) > 0 {
		m.emit(0, 0, 0, seg.head)
	}
}

// runSLEDs is the SLEDs-aware grep: one read per step at the offset the
// pick library advised, the chunk handed to the merger whatever order it
// arrived in.
func (s *Scan) runSLEDs(prev iosched.Result) iosched.Op {
	if prev.Err != nil && prev.Err != io.EOF {
		return s.exit(prev.Err)
	}
	data := s.buf[:s.n]
	s.env.ChargeCPUBytes(s.n, sledsScanRate)
	s.env.ChargeCPU(chunkOverhead)
	if s.opts.LineNumbers {
		s.chunkRecs = append(s.chunkRecs, chunkRec{
			off: s.off, end: s.off + s.n,
			newlines: int64(bytes.Count(data, newline)),
		})
	}
	if !s.m.add(s.off, data) {
		return s.finishSLEDs()
	}
	return s.nextPick()
}

// nextPick asks for the read the pick library advises next, or finishes
// the scan when the schedule is exhausted.
func (s *Scan) nextPick() iosched.Op {
	off, n, err := s.picker.NextRead()
	if errors.Is(err, sledlib.ErrFinished) {
		return s.finishSLEDs()
	}
	if err != nil {
		return s.exit(err)
	}
	if int64(len(s.buf)) < n {
		s.buf = make([]byte, n)
	}
	s.off, s.n = off, n
	return iosched.ReadAt(s.f, s.buf[:n], off)
}

// emit is the merger's callback: it keeps a complete line that matches,
// with the anchor its line number resolves against.
func (s *Scan) emit(lineStart, anchorOff, anchorDelta int64, line []byte) bool {
	if bytes.Contains(line, s.pat) {
		s.matches = append(s.matches, Match{
			Offset:      lineStart,
			Line:        string(line),
			anchorOff:   anchorOff,
			anchorDelta: anchorDelta,
		})
		if s.opts.FirstOnly {
			s.stopped = true
			return false
		}
	}
	return true
}

// finishSLEDs runs once the last chunk is in (or -q stopped the scan):
// the lines still open at the file's edges, line numbers, and the sort
// into file order.
func (s *Scan) finishSLEDs() iosched.Op {
	if !s.stopped {
		s.m.finish(s.f.Size())
	}

	if s.opts.LineNumbers && !s.stopped {
		// Resolve line numbers: prefix newline counts at every chunk
		// boundary, then lineNo = prefix(anchor) + delta + 1.
		recs := s.chunkRecs
		sort.Slice(recs, func(i, j int) bool { return recs[i].off < recs[j].off })
		prefix := make(map[int64]int64, len(recs)+1)
		var cum int64
		for _, r := range recs {
			prefix[r.off] = cum
			cum += r.newlines
			prefix[r.end] = cum
		}
		for i := range s.matches {
			base, ok := prefix[s.matches[i].anchorOff]
			if !ok {
				return s.exit(fmt.Errorf("grepapp: line-number anchor %d is not a chunk boundary", s.matches[i].anchorOff))
			}
			s.matches[i].LineNo = base + s.matches[i].anchorDelta + 1
		}
		s.env.ChargeCPU(simclock.Duration(len(recs)) * simclock.Microsecond)
	}

	// The anchors were bookkeeping; clear them so Match values compare
	// cleanly for callers.
	for i := range s.matches {
		s.matches[i].anchorOff, s.matches[i].anchorDelta = 0, 0
	}
	if !s.opts.FirstOnly { // -q holds at most the one match that stopped it
		// Sort the buffered matches into file order before "output".
		sort.Slice(s.matches, func(i, j int) bool { return s.matches[i].Offset < s.matches[j].Offset })
		s.env.ChargeCPU(simclock.Duration(len(s.matches)) * 2 * simclock.Microsecond)
	}
	return s.exit(nil)
}
