package trace

import (
	"reflect"
	"testing"

	"sleds/internal/simclock"
	"sleds/internal/workload"
)

// TestGuidedReplayMemoEquivalence replays the same SLED-guided mixed
// workload (reads and writes, so residency splices under the replay's
// feet) with the sleds-table skeleton memo at its default capacity and
// with it disabled, and demands byte-identical per-record latencies.
// orderBatch's issue order is driven entirely by the estimates, so any
// memo-induced estimate drift would reorder a batch and move virtual
// completion times.
func TestGuidedReplayMemoEquivalence(t *testing.T) {
	const size = 64 * 4096
	p := DefaultParams(7)
	p.Streams, p.Records, p.FileSize, p.RecLen = 4, 96, size, 8192
	tr, err := Generate("mixed", p)
	if err != nil {
		t.Fatal(err)
	}
	shareFiles(tr, 2)
	var lats [2][]simclock.Duration
	for run, memo := range []bool{true, false} {
		k, tab, disk := replayMachine(t, 128)
		if !memo {
			tab.SetMemoCapacity(0)
		}
		r, _ := runReplay(t, k, tab, disk, tr, size/2, Options{UseSLEDs: true})
		lats[run] = append([]simclock.Duration(nil), r.Latencies()...)
		if memo {
			if st := tab.MemoStats(); st.Hits == 0 {
				t.Fatalf("guided replay never hit the skeleton memo: %+v", st)
			}
		}
	}
	if !reflect.DeepEqual(lats[0], lats[1]) {
		t.Fatal("memoized and direct SLED-guided replays produced different latencies")
	}
}

// benchGather measures one guided-gather reorder: orderBatch on a
// 16-record burst batch over a file whose residency is shattered into
// single-page runs (one SLED query plus per-record delivery estimates
// plus the cheapest-first sort).
func benchGather(b *testing.B, memo bool) {
	k, tab, disk := replayMachine(b, 256)
	if !memo {
		tab.SetMemoCapacity(0)
	}
	const size = 256 * 4096
	tr := &Trace{Files: []FileSpec{{Size: size}}}
	for i := 0; i < 16; i++ {
		tr.Records = append(tr.Records, Record{
			Stream: 0, File: 0, Off: int64(i) * 16 * 4096, Len: 4096, Op: OpRead,
		})
	}
	if _, err := k.Create("/data/g0", disk, workload.NewText(1, size, 4096)); err != nil {
		b.Fatal(err)
	}
	f, err := k.Open("/data/g0")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	for off := int64(0); off < size; off += 4 * 4096 {
		if _, err := f.ReadAtMapped(buf, off); err != nil {
			b.Fatal(err)
		}
	}
	f.Close()
	k.ResetDeviceState()
	r, err := NewReplay(k, tab, tr, []string{"/data/g0"}, Options{UseSLEDs: true})
	if err != nil {
		b.Fatal(err)
	}
	s := &streamReplay{r: r, recs: r.idx.Records(0), issued: -1}
	s.formBatch()
	if len(s.batch) != 16 {
		b.Fatalf("burst formed a %d-record batch, want 16", len(s.batch))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.orderBatch()
	}
}

// BenchmarkGuidedGather is the guided-gather reorder with the skeleton
// memo warm: the SLED query fast-copies a cached vector.
func BenchmarkGuidedGather(b *testing.B) { benchGather(b, true) }

// BenchmarkGuidedGatherColdMemo re-derives the run/gap decomposition on
// every gather (memo disabled).
func BenchmarkGuidedGatherColdMemo(b *testing.B) { benchGather(b, false) }
