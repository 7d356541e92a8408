package trace

// The wire format is versioned, line-oriented text — diffable, mergeable,
// and byte-stable:
//
//	sledtrace/1
//	files <nfiles>
//	f <index> <size>
//	records <nrecords>
//	r <vtime-ns> <stream> <file> <off> <len> <r|w>
//	end
//
// One f line per file in index order, one r line per record in canonical
// order, integers in decimal, fields separated by single spaces. Decode is
// strict: unknown lines, wrong counts, malformed fields, a missing end
// marker, or a trace failing Validate are all errors — a trace either
// round-trips exactly or is rejected, never silently patched.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sleds/internal/simclock"
)

// Version is the codec version this package writes and the only one it
// reads.
const Version = 1

// header is the first line of every trace file.
const header = "sledtrace/1"

// Encode writes the trace in the versioned text format. The trace must
// validate; encoding an invalid trace is refused so a bad generator cannot
// launder its output through the codec.
func Encode(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", header)
	fmt.Fprintf(bw, "files %d\n", len(t.Files))
	for i, f := range t.Files {
		fmt.Fprintf(bw, "f %d %d\n", i, f.Size)
	}
	fmt.Fprintf(bw, "records %d\n", len(t.Records))
	for _, r := range t.Records {
		fmt.Fprintf(bw, "r %d %d %d %d %d %s\n",
			int64(r.VTime), r.Stream, r.File, r.Off, r.Len, r.Op)
	}
	fmt.Fprintf(bw, "end\n")
	return bw.Flush()
}

// Decode reads one trace in the versioned text format, strictly: every
// structural deviation is an error, and the decoded trace is validated
// before it is returned.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", fmt.Errorf("trace: decode: unexpected end of input after line %d", line)
		}
		line++
		return sc.Text(), nil
	}

	l, err := next()
	if err != nil {
		return nil, err
	}
	if l != header {
		return nil, fmt.Errorf("trace: decode line 1: want header %q, got %q", header, l)
	}

	l, err = next()
	if err != nil {
		return nil, err
	}
	nFiles, err := countLine(l, "files", line)
	if err != nil {
		return nil, err
	}
	// The slices grow as lines arrive: a declared count is only a claim,
	// and sizing from it would let a short file ask for any amount of
	// memory.
	t := &Trace{}
	for i := 0; i < nFiles; i++ {
		l, err := next()
		if err != nil {
			return nil, err
		}
		fields := strings.Split(l, " ")
		if len(fields) != 3 || fields[0] != "f" {
			return nil, fmt.Errorf("trace: decode line %d: want %q, got %q", line, "f <index> <size>", l)
		}
		idx, err := parseInt(fields[1], "file index", line)
		if err != nil {
			return nil, err
		}
		if idx != int64(i) {
			return nil, fmt.Errorf("trace: decode line %d: file index %d out of order (want %d)", line, idx, i)
		}
		size, err := parseInt(fields[2], "file size", line)
		if err != nil {
			return nil, err
		}
		t.Files = append(t.Files, FileSpec{Size: size})
	}

	l, err = next()
	if err != nil {
		return nil, err
	}
	nRecords, err := countLine(l, "records", line)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nRecords; i++ {
		l, err := next()
		if err != nil {
			return nil, err
		}
		fields := strings.Split(l, " ")
		if len(fields) != 7 || fields[0] != "r" {
			return nil, fmt.Errorf("trace: decode line %d: want %q, got %q", line, "r <vtime> <stream> <file> <off> <len> <r|w>", l)
		}
		var rec Record
		vt, err := parseInt(fields[1], "vtime", line)
		if err != nil {
			return nil, err
		}
		rec.VTime = simclock.Duration(vt)
		stream, err := parseInt(fields[2], "stream", line)
		if err != nil {
			return nil, err
		}
		rec.Stream = int(stream)
		file, err := parseInt(fields[3], "file", line)
		if err != nil {
			return nil, err
		}
		rec.File = int(file)
		if rec.Off, err = parseInt(fields[4], "offset", line); err != nil {
			return nil, err
		}
		if rec.Len, err = parseInt(fields[5], "length", line); err != nil {
			return nil, err
		}
		switch fields[6] {
		case "r":
			rec.Op = OpRead
		case "w":
			rec.Op = OpWrite
		default:
			return nil, fmt.Errorf("trace: decode line %d: unknown op %q", line, fields[6])
		}
		t.Records = append(t.Records, rec)
	}

	l, err = next()
	if err != nil {
		return nil, err
	}
	if l != "end" {
		return nil, fmt.Errorf("trace: decode line %d: want %q, got %q", line, "end", l)
	}
	if sc.Scan() {
		return nil, fmt.Errorf("trace: decode: trailing data after end marker: %q", sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return t, nil
}

// countLine parses a "<keyword> <n>" line with a non-negative count.
func countLine(l, keyword string, line int) (int, error) {
	fields := strings.Split(l, " ")
	if len(fields) != 2 || fields[0] != keyword {
		return 0, fmt.Errorf("trace: decode line %d: want %q, got %q", line, keyword+" <n>", l)
	}
	n, err := parseInt(fields[1], keyword+" count", line)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("trace: decode line %d: negative %s count %d", line, keyword, n)
	}
	return int(n), nil
}

// parseInt parses one strict decimal field (no sign prefix foolery beyond
// a leading minus, no whitespace — strconv is already strict).
func parseInt(s, what string, line int) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: decode line %d: bad %s %q", line, what, s)
	}
	return v, nil
}
