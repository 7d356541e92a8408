package trace

// The replay engine compiles a trace into iosched Program state machines —
// one per stream, arrivals scheduled at record vtime via Sleep steps — and
// runs them over the queued-device kernel, so any scheduler × SLED mode ×
// fault profile can be measured on the identical request sequence. A read
// is a page-in, costing what the read costs; writes write zeros.
//
// Two replay modes:
//
//   - blind: each record is issued at its arrival time, in trace order —
//     what an application that ignores storage state does;
//   - SLED-guided: records arriving within a gather window form a batch;
//     when the last of them has arrived, the stream queries the kernel's
//     SLEDs for the touched files and issues the batch cheapest-first
//     (estimated delivery time, ties kept in trace order).
//
// The gather window is the mechanism that lets SLED guidance lose as well
// as win: batching delays early records by up to the window, so on a
// workload where every estimate is flat (nothing cached, one device) the
// reorder buys nothing and the delay is pure overhead — while on a
// workload with a warm cache under eviction pressure, consuming cached
// regions first avoids refaulting them from the device.

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"sleds/internal/core"
	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// Options configures a replay.
type Options struct {
	// UseSLEDs selects SLED-guided issue order (see the package comment);
	// false replays blind.
	UseSLEDs bool
	// BatchWindow is the gather window for SLED-guided batching: records
	// of one stream whose arrivals fall within this window of the batch
	// head form one reorderable batch, however many (a burst of
	// simultaneous arrivals becomes one batch, as a scan job submitted at
	// once should). Zero selects the 4ms default.
	BatchWindow simclock.Duration
}

// defaultBatchWindow is the gather window when Options leaves it zero.
const defaultBatchWindow = 4 * simclock.Millisecond

// Replay binds a validated trace to open files on a kernel and compiles
// it into engine streams. Use it once: NewReplay, AddStreams, Engine.Run,
// then read Latencies.
type Replay struct {
	k     *vfs.Kernel
	tab   *core.Table
	t     *Trace
	files []*vfs.File
	opts  Options
	idx   *StreamIndex

	lat    []simclock.Duration // per trace-record completion - arrival
	ioErrs int                 // records that completed with vfs.ErrIO
}

// NewReplay validates the trace and opens its files. paths maps trace
// file indices to kernel paths; every file must exist and be at least as
// large as its FileSpec declares. tab may be nil only for blind replay.
func NewReplay(k *vfs.Kernel, tab *core.Table, t *Trace, paths []string, opts Options) (*Replay, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(paths) != len(t.Files) {
		return nil, fmt.Errorf("trace: replay of a %d-file trace with %d paths", len(t.Files), len(paths))
	}
	if opts.UseSLEDs && tab == nil {
		return nil, errors.New("trace: SLED-guided replay needs a sleds table")
	}
	if opts.BatchWindow == 0 {
		opts.BatchWindow = defaultBatchWindow
	}
	if opts.BatchWindow < 0 {
		return nil, fmt.Errorf("trace: negative batch window %v", opts.BatchWindow)
	}
	r := &Replay{k: k, tab: tab, t: t, opts: opts, idx: t.Index()}
	for i, path := range paths {
		f, err := k.Open(path)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("trace: replay file %d: %w", i, err)
		}
		if f.Size() < t.Files[i].Size {
			f.Close()
			r.close()
			return nil, fmt.Errorf("trace: replay file %d (%s) is %d bytes, trace declares %d",
				i, path, f.Size(), t.Files[i].Size)
		}
		r.files = append(r.files, f)
	}
	r.lat = make([]simclock.Duration, len(t.Records))
	return r, nil
}

// close releases the opened files.
func (r *Replay) close() {
	for _, f := range r.files {
		f.Close()
	}
	r.files = nil
}

// AddStreams registers one engine stream per trace stream (all starting
// at the engine base; each sleeps to its first arrival) and returns their
// engine IDs in trace-stream order.
func (r *Replay) AddStreams(e *iosched.Engine) []iosched.StreamID {
	ids := make([]iosched.StreamID, len(r.idx.Streams()))
	for i := range r.idx.Streams() {
		recs := r.idx.Records(i)
		var maxLen int64
		for _, ri := range recs {
			if rec := &r.t.Records[ri]; rec.Op == OpWrite && rec.Len > maxLen {
				maxLen = rec.Len
			}
		}
		ids[i] = e.AddStream(0, &streamReplay{
			r:      r,
			recs:   recs,
			buf:    make([]byte, maxLen),
			issued: -1,
		})
	}
	return ids
}

// Latencies returns the per-record virtual-time latencies (completion
// minus arrival), indexed like Trace.Records. Valid after the engine run;
// records that never completed (a stream failed) hold zero.
func (r *Replay) Latencies() []simclock.Duration { return r.lat }

// IOErrors reports how many records completed with an I/O error (possible
// only under fault injection; the retry policy absorbs transient faults).
func (r *Replay) IOErrors() int { return r.ioErrs }

// recEst pairs a batch position with its estimated delivery time for the
// cheapest-first sort.
type recEst struct {
	rec int // index into Trace.Records
	est float64
}

// streamReplay is the state machine of one replayed stream. It alternates
// between sleeping to the next gate and issuing the next record's I/O;
// all bookkeeping (latency recording, batch formation, SLED queries)
// happens synchronously inside Step.
type streamReplay struct {
	r    *Replay
	recs []int // this stream's record indices, trace order
	buf  []byte

	started bool
	base    simclock.Duration // engine base, fixes absolute arrival times

	i      int      // next record position not yet batched
	batch  []recEst // current batch in issue order
	bi     int      // next batch position to issue
	gated  bool     // batch gate reached, order finalized
	issued int      // trace-record index in flight, -1 when none

	sleds []core.SLED // QueryAppend scratch
}

// Step implements iosched.Program.
func (s *streamReplay) Step(h *iosched.Handle, prev iosched.Result) iosched.Op {
	if !s.started {
		s.started = true
		s.base = h.Now()
	}
	if s.issued >= 0 {
		// prev carries the completion of the in-flight record.
		rec := &s.r.t.Records[s.issued]
		// A read ending exactly at file end may legally report io.EOF
		// alongside a full buffer; that is a completion, not a failure.
		if prev.Err != nil && !errors.Is(prev.Err, io.EOF) {
			if !errors.Is(prev.Err, vfs.ErrIO) {
				return iosched.Exit(prev.Err)
			}
			// The retry policy gave up on this record (fault injection):
			// the time it cost is real, so record it and replay on.
			s.r.ioErrs++
		}
		s.r.lat[s.issued] = h.Now() - (s.base + rec.VTime)
		s.issued = -1
	}

	for {
		if s.bi >= len(s.batch) {
			if s.i >= len(s.recs) {
				return iosched.Exit(nil)
			}
			s.formBatch()
		}
		if !s.gated {
			// The batch issues once its last record has arrived (blind
			// batches are singletons, so the gate is the arrival itself).
			gate := s.base + s.r.t.Records[s.batch[len(s.batch)-1].rec].VTime
			if now := h.Now(); now < gate {
				return iosched.Sleep(gate - now)
			}
			s.gated = true
			if s.r.opts.UseSLEDs && len(s.batch) > 1 {
				s.orderBatch()
			}
		}
		rec := &s.r.t.Records[s.batch[s.bi].rec]
		s.bi++
		s.issued = s.batch[s.bi-1].rec
		if rec.Op == OpWrite {
			return iosched.WriteAt(s.r.files[rec.File], s.buf[:rec.Len], rec.Off)
		}
		return iosched.PageIn(s.r.files[rec.File], rec.Off, rec.Len)
	}
}

// formBatch gathers the next batch: one record when blind, otherwise the
// run of records whose arrivals fall within the gather window of the
// batch head.
func (s *streamReplay) formBatch() {
	s.batch = s.batch[:0]
	s.bi = 0
	s.gated = false
	head := s.r.t.Records[s.recs[s.i]].VTime
	for s.i < len(s.recs) {
		ri := s.recs[s.i]
		if len(s.batch) > 0 {
			if !s.r.opts.UseSLEDs {
				break
			}
			if s.r.t.Records[ri].VTime > head+s.r.opts.BatchWindow {
				break
			}
		}
		s.batch = append(s.batch, recEst{rec: ri})
		s.i++
	}
}

// orderBatch queries the SLEDs of every file the batch touches and sorts
// the batch cheapest-first by estimated delivery time, trace order among
// equals. One query per distinct file per batch: the estimates are
// sampled once at the gate instant, like a real application would.
// Successive gathers over the same file hit the table's skeleton memo
// whenever residency was not spliced between batches, so the per-batch
// query cost is the O(devices) overlay, not a residency re-walk.
func (s *streamReplay) orderBatch() {
	for fi := range s.r.files {
		touched := false
		for i := range s.batch {
			if s.r.t.Records[s.batch[i].rec].File == fi {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		sleds, err := core.QueryAppend(s.sleds[:0], s.r.k, s.r.tab, s.r.files[fi].Inode())
		if err != nil {
			// Estimation is advisory: an unqueryable file replays in trace
			// order (estimate 0 keeps relative order among its records).
			continue
		}
		s.sleds = sleds
		for i := range s.batch {
			rec := &s.r.t.Records[s.batch[i].rec]
			if rec.File == fi {
				s.batch[i].est, _, _ = core.RangeDelivery(sleds, rec.Off, rec.Len)
			}
		}
	}
	sort.SliceStable(s.batch, func(i, j int) bool { return s.batch[i].est < s.batch[j].est })
}
