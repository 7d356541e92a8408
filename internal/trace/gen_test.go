package trace

import (
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, class := range Classes() {
		p := DefaultParams(123)
		a, err := Generate(class, p)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		b, err := Generate(class, p)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if encodeString(t, a) != encodeString(t, b) {
			t.Fatalf("%s: two generations with identical params differ", class)
		}
		p.Seed++
		c, err := Generate(class, p)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if class != "olap" && encodeString(t, a) == encodeString(t, c) {
			t.Fatalf("%s: changing the seed did not change the trace", class)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	p := DefaultParams(9)
	p.Streams, p.Records = 4, 64
	for _, class := range Classes() {
		tr, err := Generate(class, p)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if got, want := len(tr.Records), p.Streams*p.Records; got != want {
			t.Fatalf("%s: %d records, want %d", class, got, want)
		}
		if got, want := len(tr.Files), p.Streams; got != want {
			t.Fatalf("%s: %d files, want %d", class, got, want)
		}
		if got, want := len(tr.Streams()), p.Streams; got != want {
			t.Fatalf("%s: %d streams, want %d", class, got, want)
		}
	}
}

func TestOLAPIsBurstSubmittedScan(t *testing.T) {
	p := DefaultParams(1)
	p.Streams, p.Records = 2, 16
	tr, err := Generate("olap", p)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Records {
		if r.VTime != 0 {
			t.Fatalf("olap record %d arrives at %v, want every arrival at 0", i, r.VTime)
		}
		if r.Op != OpRead {
			t.Fatalf("olap record %d is a write", i)
		}
	}
	// Within a stream, offsets advance sequentially in RecLen chunks.
	idx := tr.Index()
	for si := range idx.Streams() {
		for j, ri := range idx.Records(si) {
			if want := int64(j) * p.RecLen; tr.Records[ri].Off != want {
				t.Fatalf("olap stream %d chunk %d at offset %d, want %d", si, j, tr.Records[ri].Off, want)
			}
		}
	}
}

func TestZipfPrefersLowRanks(t *testing.T) {
	z := NewZipf(1024, 1.1)
	r := NewRNG(5)
	const draws = 20000
	var low, high int
	for i := 0; i < draws; i++ {
		if rank := z.Sample(r); rank < 32 {
			low++
		} else if rank >= 512 {
			high++
		}
	}
	if low <= high {
		t.Fatalf("zipf drew %d low ranks vs %d high ranks; hot set is not hot", low, high)
	}
	if low < draws/4 {
		t.Fatalf("zipf drew only %d/%d from the 32 hottest ranks", low, draws)
	}
}

func TestMixedWriteFraction(t *testing.T) {
	p := DefaultParams(77)
	p.Streams, p.Records, p.WriteFrac = 4, 512, 0.3
	tr, err := Generate("mixed", p)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, r := range tr.Records {
		if r.Op == OpWrite {
			writes++
		}
	}
	frac := float64(writes) / float64(len(tr.Records))
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("mixed write fraction %.3f far from configured 0.3", frac)
	}
}

func TestBurstyHasSimultaneousArrivals(t *testing.T) {
	p := DefaultParams(3)
	p.Streams, p.Records = 1, 4*burstLen
	tr, err := Generate("bursty", p)
	if err != nil {
		t.Fatal(err)
	}
	byTime := map[int64]int{}
	for _, r := range tr.Records {
		byTime[int64(r.VTime)]++
	}
	if got, want := len(byTime), 4; got != want {
		t.Fatalf("bursty trace has %d distinct arrival instants, want %d bursts", got, want)
	}
	for at, n := range byTime {
		if n != burstLen {
			t.Fatalf("burst at %d has %d records, want %d", at, n, burstLen)
		}
	}
}

func TestGenerateRejectsBadParamsAndClasses(t *testing.T) {
	if _, err := Generate("tpcc", DefaultParams(1)); err == nil {
		t.Fatal("unknown class accepted")
	} else {
		for _, c := range Classes() {
			if !strings.Contains(err.Error(), c) {
				t.Fatalf("unknown-class error %q does not list class %q", err, c)
			}
		}
	}
	bad := []func(*Params){
		func(p *Params) { p.Streams = 0 },
		func(p *Params) { p.Records = -1 },
		func(p *Params) { p.RecLen = 0 },
		func(p *Params) { p.PageSize = 0 },
		func(p *Params) { p.FileSize = 1 },
		func(p *Params) { p.WriteFrac = 1.5 },
	}
	for i, mut := range bad {
		p := DefaultParams(1)
		mut(&p)
		if _, err := Generate("oltp", p); err == nil {
			t.Fatalf("bad params case %d accepted", i)
		}
	}
}
