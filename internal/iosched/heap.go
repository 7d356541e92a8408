package iosched

import "sleds/internal/simclock"

// engineEvent is one schedulable occurrence: a stream resume (start, sleep
// wake, or request completion), a hedge deadline, or a device dispatch.
// Completion resumes carry the request that completed (req non-nil), so
// the engine can tell which of a hedged pair finished and can retire a
// cancelled loser without touching its stream; hedge events carry only
// the seq of the primary they guard (in seq, below), which is how a
// deadline that outlived its read is recognised as stale even after the
// engine has reused the primary's record.
//
// The heap moves and compares events constantly, so one is kept to 32
// bytes and carries everything eventLess reads: id is the stream (resumes,
// hedges) or the device (dispatches), and seq orders events of one stream
// at one instant — 0 for a plain resume, the carried or guarded request's
// submission seq plus one otherwise.
type engineEvent struct {
	time simclock.Duration
	seq  uint64
	req  *Request
	id   int32
	kind uint8 // evResume before evHedge before evDispatch at equal times
}

const (
	evResume   = 0 // a stream starts, wakes from sleep, or a request completes
	evHedge    = 1 // a hedged read's deadline expires; the secondary fires
	evDispatch = 2 // an idle device begins servicing a queued request
)

// resumeEvent builds a resume event for a stream; req is the request it
// carries, nil for a start or a sleep wake.
func resumeEvent(t simclock.Duration, id StreamID, req *Request) engineEvent {
	ev := engineEvent{time: t, kind: evResume, id: int32(id), req: req}
	if req != nil {
		ev.seq = req.seq + 1
	}
	return ev
}

// eventLess is the engine's total event order: time, then resumes before
// hedge deadlines before dispatches, then stream ID (resumes and hedges)
// or device ID (dispatches), then the carried request's submission seq.
// The (time, resume-before-dispatch, stream/device) prefix is the tie-break
// the reference engine's linear scan applies (refengine_test.go), so the
// two agree on every schedule without hedged reads. The seq suffix only
// matters when one stream has several events at one instant — a hedged pair
// completing together, or an abandoned loser's completion landing on a
// sleep wake — and makes the plain resume go first, then the
// earlier-submitted request.
func eventLess(a, b *engineEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of pending events under eventLess: what
// running streams and devices have scheduled — sleep wakes, completions,
// hedge deadlines, dispatches. Stream starts are not in it (Run merges them
// in from a list sorted once), so its depth follows the streams in flight.
// Stream resumes without a request are unique per stream and always live
// (a stream waits on at most one timer, at a fixed time). Dispatch events can
// be superseded: a submission carrying an earlier arrival than the pending
// dispatch's min-arrival pulls the dispatch instant forward, pushing a
// second event and leaving the stale one to be dropped on pop
// (devQueue.dispatchAt marks the live one). Hedge events go stale when
// their read completes first; the pop checks the stream's hedge state.
type eventHeap []engineEvent

//sledlint:hotpath
func (h *eventHeap) push(ev engineEvent) {
	//sledlint:allow hotalloc -- first-use growth: the engine keeps the heap's storage across events and Runs, so it grows only to the deepest the run gets
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//sledlint:hotpath
func (h *eventHeap) pop() engineEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = engineEvent{}
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && eventLess(&s[l], &s[smallest]) {
			smallest = l
		}
		if r < len(s) && eventLess(&s[r], &s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
