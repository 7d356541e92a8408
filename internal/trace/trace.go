// Package trace defines the canonical I/O trace format of the simulator
// and everything that produces or consumes it: a versioned deterministic
// text codec (codec.go), a library of seeded parameterized workload
// generators (gen.go), and a replay engine that compiles a trace into
// iosched Program state machines and runs it over the queued-device kernel
// (replay.go).
//
// A trace is a file table plus a canonically ordered sequence of records
// (vtime, stream, file, off, len, op). Every experiment shape the
// simulator can drive — synthetic, generated, or imported from a real
// system — reduces to this one format, so schedulers, SLED guidance, and
// fault profiles can be compared on identical request sequences.
//
// # Determinism
//
// Traces are plain values with a total canonical order (Record.Less);
// generation is a pure function of its parameters (splitmix64 streams, no
// math/rand), encoding is byte-stable, and replay runs on the
// deterministic event-heap engine. The same trace replayed twice produces
// the identical schedule.
package trace

import (
	"fmt"
	"sort"

	"sleds/internal/simclock"
)

// Op is a record's operation kind.
type Op uint8

// Operations.
const (
	OpRead Op = iota
	OpWrite
)

// String names the op with its wire letter.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "r"
	case OpWrite:
		return "w"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// FileSpec declares one file of a trace's file table: records refer to
// files by index. Size bounds the offsets records may touch; the replayer
// checks it against the actual simulated file at open time.
type FileSpec struct {
	Size int64
}

// Record is one traced I/O request: at virtual time VTime, stream Stream
// issues an Op of Len bytes at byte Off of file File.
type Record struct {
	VTime  simclock.Duration
	Stream int
	File   int
	Off    int64
	Len    int64
	Op     Op
}

// Less is the canonical record order: (VTime, Stream, File, Off, Len, Op).
// It is total, so sorting is deterministic and sorted traces merge
// stably.
func (r Record) Less(o Record) bool {
	if r.VTime != o.VTime {
		return r.VTime < o.VTime
	}
	if r.Stream != o.Stream {
		return r.Stream < o.Stream
	}
	if r.File != o.File {
		return r.File < o.File
	}
	if r.Off != o.Off {
		return r.Off < o.Off
	}
	if r.Len != o.Len {
		return r.Len < o.Len
	}
	return r.Op < o.Op
}

// Trace is a validated-on-demand I/O trace: a file table and records in
// canonical order.
type Trace struct {
	Files   []FileSpec
	Records []Record
}

// Sort puts the records into canonical order (stable, so equal records
// keep their relative positions).
func (t *Trace) Sort() {
	sort.SliceStable(t.Records, func(i, j int) bool { return t.Records[i].Less(t.Records[j]) })
}

// Validate checks the trace's invariants:
//
//   - every file has a non-negative size;
//   - every record names a declared file, has VTime >= 0, Stream >= 0,
//     Off >= 0, Len > 0 (zero-length ops are meaningless and rejected),
//     a known op, and stays inside its file;
//   - records are in canonical order (non-decreasing under Record.Less).
//
// A decoded or generated trace that passes Validate replays without
// out-of-range accesses on files of the declared sizes.
func (t *Trace) Validate() error {
	for i, f := range t.Files {
		if f.Size < 0 {
			return fmt.Errorf("trace: file %d has negative size %d", i, f.Size)
		}
	}
	for i, r := range t.Records {
		if r.VTime < 0 {
			return fmt.Errorf("trace: record %d has negative vtime %d", i, int64(r.VTime))
		}
		if r.Stream < 0 {
			return fmt.Errorf("trace: record %d has negative stream %d", i, r.Stream)
		}
		if r.File < 0 || r.File >= len(t.Files) {
			return fmt.Errorf("trace: record %d names file %d outside the %d-entry file table", i, r.File, len(t.Files))
		}
		if r.Len <= 0 {
			return fmt.Errorf("trace: record %d has non-positive length %d", i, r.Len)
		}
		if r.Off < 0 {
			return fmt.Errorf("trace: record %d has negative offset %d", i, r.Off)
		}
		if r.Off+r.Len < r.Off || r.Off+r.Len > t.Files[r.File].Size {
			return fmt.Errorf("trace: record %d [%d,%d) runs outside file %d of size %d",
				i, r.Off, r.Off+r.Len, r.File, t.Files[r.File].Size)
		}
		if r.Op != OpRead && r.Op != OpWrite {
			return fmt.Errorf("trace: record %d has unknown op %d", i, uint8(r.Op))
		}
		if i > 0 && r.Less(t.Records[i-1]) {
			return fmt.Errorf("trace: record %d out of canonical order (vtime %d after %d)",
				i, int64(r.VTime), int64(t.Records[i-1].VTime))
		}
	}
	return nil
}

// Streams returns the trace's stream IDs in ascending order, each exactly
// once.
func (t *Trace) Streams() []int {
	seen := make(map[int]bool, 16)
	var ids []int
	for _, r := range t.Records {
		if !seen[r.Stream] {
			seen[r.Stream] = true
			ids = append(ids, r.Stream)
		}
	}
	sort.Ints(ids)
	return ids
}

// StreamIndex maps each stream to the indices of its records, preserving
// canonical order within a stream. Build it once and iterate the returned
// slices; iteration itself allocates nothing.
type StreamIndex struct {
	ids  []int   // ascending stream IDs
	recs [][]int // recs[i] are record indices of ids[i], in trace order
}

// Index builds the per-stream record index.
func (t *Trace) Index() *StreamIndex {
	ids := t.Streams()
	pos := make(map[int]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	recs := make([][]int, len(ids))
	counts := make([]int, len(ids))
	for _, r := range t.Records {
		counts[pos[r.Stream]]++
	}
	for i := range recs {
		recs[i] = make([]int, 0, counts[i])
	}
	for ri, r := range t.Records {
		i := pos[r.Stream]
		recs[i] = append(recs[i], ri)
	}
	return &StreamIndex{ids: ids, recs: recs}
}

// Streams returns the indexed stream IDs in ascending order. The caller
// must not modify the returned slice.
//
//sledlint:hotpath
func (x *StreamIndex) Streams() []int { return x.ids }

// Records returns the record indices of the i-th indexed stream (the
// stream at Streams()[i]), in trace order. The caller must not modify the
// returned slice.
//
//sledlint:hotpath
func (x *StreamIndex) Records(i int) []int { return x.recs[i] }

// Span returns the virtual-time extent of the trace: the first and last
// record arrival times (both zero for an empty trace).
func (t *Trace) Span() (first, last simclock.Duration) {
	if len(t.Records) == 0 {
		return 0, 0
	}
	return t.Records[0].VTime, t.Records[len(t.Records)-1].VTime
}
