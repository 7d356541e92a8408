package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"sleds/internal/iosched"
	"sleds/internal/simclock"
	"sleds/internal/vfs"
)

// BenchmarkSelect measures the hot selector path: four QueryAppend-based
// estimates plus the partition/probe logic, on reused scratch — the
// per-read client-side overhead of SLED-guided routing.
func BenchmarkSelect(b *testing.B) {
	fx := newFleet(b, DefaultConfig(), 64*testPage)
	now := fx.k.Clock.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.f.Select(0, 4*testPage, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectColdMemo is BenchmarkSelect with the sleds table's
// skeleton memo disabled: every replica estimate re-walks residency from
// scratch. The gap between the two is the memo's contribution to pick
// latency.
func BenchmarkSelectColdMemo(b *testing.B) {
	fx := newFleet(b, DefaultConfig(), 64*testPage)
	fx.tab.SetMemoCapacity(0)
	now := fx.k.Clock.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.f.Select(0, 4*testPage, now); err != nil {
			b.Fatal(err)
		}
	}
}

// fragmentReplicas shatters every replica file's client-cache residency
// into single-page runs: strided one-page reads, interleaved across
// replicas so the shared LRU keeps an even mix. Selection estimates then
// walk dozens of run/gap transitions per replica — the workload the
// skeleton memo exists for.
func fragmentReplicas(b *testing.B, fx *fixture, fileSize int64) {
	b.Helper()
	files := make([]*vfs.File, fx.f.Replicas())
	for i := range files {
		f, err := fx.k.Open(fmt.Sprintf("/data.r%d", i))
		if err != nil {
			b.Fatal(err)
		}
		files[i] = f
	}
	buf := make([]byte, testPage)
	for off := int64(0); off < fileSize; off += 4 * testPage {
		for _, f := range files {
			if _, err := f.ReadAtMapped(buf, off); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, f := range files {
		f.Close()
	}
}

// BenchmarkSelectFragmented is Select against replicas whose client-side
// residency is shattered into single-page runs (the post-churn steady
// state of a live fleet). Warm memo: every pick fast-copies three cached
// skeletons. Compare BenchmarkSelectFragmentedColdMemo.
func BenchmarkSelectFragmented(b *testing.B) {
	const fileSize = 256 * testPage
	fx := newFleet(b, DefaultConfig(), fileSize)
	fragmentReplicas(b, fx, fileSize)
	now := fx.k.Clock.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.f.Select(0, 4*testPage, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectFragmentedColdMemo re-derives every replica's run/gap
// decomposition on each pick (memo disabled).
func BenchmarkSelectFragmentedColdMemo(b *testing.B) {
	const fileSize = 256 * testPage
	fx := newFleet(b, DefaultConfig(), fileSize)
	fx.tab.SetMemoCapacity(0)
	fragmentReplicas(b, fx, fileSize)
	now := fx.k.Clock.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.f.Select(0, 4*testPage, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadProgram measures one complete logical read through the
// Read state machine, run by an engine with no queued device (every access
// completes in place), per policy.
func BenchmarkReadProgram(b *testing.B) {
	for _, pol := range []Policy{PolicyRR, PolicySLED} {
		b.Run(pol.String(), func(b *testing.B) {
			fx := newFleet(b, DefaultConfig(), 64*testPage)
			st := benchStream{f: fx.f, policy: pol, offs: []int64{0}}
			e := iosched.NewEngine(fx.k)
			e.AddStream(0, &st)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.cur = 0
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineHedgedReads measures engine-driven hedged reads: 64
// streams, one hedged read each, across the queued replica fleet.
func BenchmarkEngineHedgedReads(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx := newFleet(b, DefaultConfig(), 64*testPage)
		e := engineFor(fx)
		outs := make([]Read, 64)
		for s := range outs {
			off := int64(s%16) * 4 * testPage
			e.AddStream(simclock.Duration(s)*simclock.Millisecond,
				fx.f.ReadProgram(PolicySLEDHedge, off, 4*testPage, &outs[s]))
		}
		b.StartTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStream is one efleet-style client: reads back to back on its one
// Read, a think-time sleep (when think > 0) between them.
type benchStream struct {
	f        *Fleet
	policy   Policy
	offs     []int64
	think    simclock.Duration
	cur      int
	rd       Read
	reading  bool
	thinking bool
}

func (s *benchStream) Step(h *iosched.Handle, prev iosched.Result) iosched.Op {
	for {
		if !s.reading {
			if s.cur == len(s.offs) {
				return iosched.Exit(nil)
			}
			if s.think > 0 && s.cur > 0 && !s.thinking {
				s.thinking = true
				return iosched.Sleep(s.think)
			}
			s.thinking = false
			s.f.BeginRead(&s.rd, s.policy, s.offs[s.cur], 4*testPage)
			s.reading = true
			prev = iosched.Result{}
		}
		op, done := s.rd.Step(h, prev)
		if !done {
			return op
		}
		if s.rd.Err != nil {
			return iosched.Exit(s.rd.Err)
		}
		s.reading = false
		s.cur++
	}
}

// BenchmarkEFleet is one cell of the efleet experiment at the width the
// host-time benchmark runs it (cmd/sledsperf's fleet workload): the hotspot
// scenario under sled+hedge on 16 replicas — 2,000 streams 2 ms apart, four
// skewed 4-page reads each over a 256-page file, 64-page server caches.
// Only Engine.Run is timed. allocs/read is what one logical read costs the
// host allocator: the device requests it queues, and nothing else.
func BenchmarkEFleet(b *testing.B) {
	const (
		streams, readsPer = 2000, 4
		filePages         = 256
		records           = filePages / 4
	)
	cfg := DefaultConfig()
	cfg.Replicas = 16
	cfg.Server.ServerCachePages = 64
	cfg.ProbeEvery = 64
	var mallocs uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fx := newFleet(b, cfg, filePages*testPage)
		e := engineFor(fx)
		g := uint64(1)
		all := make([]benchStream, streams)
		for s := range all {
			offs := make([]int64, readsPer)
			for j := range offs {
				// The product of two uniform draws skews towards the low
				// records: a hot head and a long tail.
				g = g*6364136223846793005 + 1442695040888963407
				u, v := g>>33%records, g>>13%records
				offs[j] = int64(u*v/records) * 4 * testPage
			}
			all[s] = benchStream{f: fx.f, policy: PolicySLEDHedge, offs: offs, think: 5 * simclock.Millisecond}
			e.AddStream(simclock.Duration(s)*2*simclock.Millisecond, &all[s])
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(b.N*streams*readsPer), "allocs/read")
}
