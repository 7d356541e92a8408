package trace

// The workload zoo: seeded parameterized generators producing traces in
// the canonical format, one per classic storage workload shape. Real
// trace replay is the credible way to evaluate a latency model
// (Boukhobza & Timsit, PAPERS.md); for shapes we have no recorded traces
// of, parameterized generative models stand in (Al-Maeeni et al.,
// PAPERS.md). Every class is a pure function of its Params: same
// parameters, byte-identical trace.

import (
	"fmt"
	"math"
	"strings"

	"sleds/internal/simclock"
	"sleds/internal/splitmix"
)

// Params configures one generator call. The zero value is not usable;
// start from DefaultParams and override. Stream s reads and writes file s,
// and records arrive from virtual time 0.
type Params struct {
	Seed    uint64
	Streams int // concurrent simulated processes, one file each
	Records int // records per stream

	FileSize int64 // bytes per file
	RecLen   int64 // bytes per op
	PageSize int64 // offset alignment for point ops

	Interarrival simclock.Duration // mean interarrival within a stream (point-read classes)

	WriteFrac float64           // fraction of writes (class mixed)
	BurstGap  simclock.Duration // mean gap between bursts (class bursty)
}

// The shape constants of the classes: zipfS is the hot-set skew of zipf
// and mixed, burstLen the records per burst of bursty.
const (
	zipfS    = 1.1
	burstLen = 16
)

// DefaultParams returns the baseline parameter set the CLI and the etrace
// experiment start from.
func DefaultParams(seed uint64) Params {
	return Params{
		Seed:         seed,
		Streams:      4,
		Records:      128,
		FileSize:     4 << 20,
		RecLen:       4096,
		PageSize:     4096,
		Interarrival: simclock.Millisecond,
		WriteFrac:    0.3,
		BurstGap:     20 * simclock.Millisecond,
	}
}

// Classes returns the generator class names, sorted.
func Classes() []string {
	return []string{"bursty", "mixed", "olap", "oltp", "zipf"}
}

// ClassDoc returns a one-line description of a class ("" for unknown
// names).
func ClassDoc(class string) string {
	switch class {
	case "oltp":
		return "uniform point reads, exponential arrivals (OLTP-style random lookups)"
	case "olap":
		return "sequential range scans submitted as one burst per stream (OLAP-style table scans)"
	case "zipf":
		return "Zipfian hot-set point reads, exponential arrivals"
	case "bursty":
		return "uniform point reads in bursts with diurnally modulated gaps"
	case "mixed":
		return "Zipfian point ops, a seeded fraction of them writes"
	default:
		return ""
	}
}

// UnknownClassError reports an unrecognized class name, listing the valid
// ones — callers surface it verbatim as their exit-2 message.
func UnknownClassError(class string) error {
	return fmt.Errorf("trace: unknown workload class %q (valid: %s)", class, strings.Join(Classes(), ", "))
}

// Generate produces one trace of the named class. Unknown class names
// return UnknownClassError.
func Generate(class string, p Params) (*Trace, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	var gen func(Params, *Trace)
	switch class {
	case "oltp":
		gen = genOLTP
	case "olap":
		gen = genOLAP
	case "zipf", "mixed":
		gen = func(p Params, t *Trace) { genHot(p, t, class == "mixed") }
	case "bursty":
		gen = genBursty
	default:
		return nil, UnknownClassError(class)
	}
	t := &Trace{Files: make([]FileSpec, p.Streams)}
	for i := range t.Files {
		t.Files[i] = FileSpec{Size: p.FileSize}
	}
	gen(p, t)
	t.Sort()
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: generator %q produced an invalid trace: %w", class, err)
	}
	return t, nil
}

// check rejects parameter combinations no generator can honor.
func (p Params) check() error {
	switch {
	case p.Streams <= 0:
		return fmt.Errorf("trace: Streams must be positive, got %d", p.Streams)
	case p.Records <= 0:
		return fmt.Errorf("trace: Records must be positive, got %d", p.Records)
	case p.RecLen <= 0:
		return fmt.Errorf("trace: RecLen must be positive, got %d", p.RecLen)
	case p.PageSize <= 0:
		return fmt.Errorf("trace: PageSize must be positive, got %d", p.PageSize)
	case p.FileSize < p.RecLen:
		return fmt.Errorf("trace: FileSize %d smaller than RecLen %d", p.FileSize, p.RecLen)
	case p.Interarrival < 0:
		return fmt.Errorf("trace: negative Interarrival %v", p.Interarrival)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("trace: WriteFrac %g outside [0,1]", p.WriteFrac)
	case p.BurstGap < 0:
		return fmt.Errorf("trace: negative BurstGap %v", p.BurstGap)
	}
	return nil
}

// streamRNG derives an independent splitmix64 stream for one generator
// stream: a pure function of (Seed, stream), so adding streams never
// perturbs the records of existing ones.
func (p Params) streamRNG(stream int) *RNG {
	r := NewRNG(p.Seed ^ 0xb5297a4d3f84d5a7)
	r.state += uint64(uint32(stream)) * splitmix.Gamma
	return r
}

// alignedOff draws a uniform PageSize-aligned offset leaving room for one
// RecLen op.
func alignedOff(p Params, r *RNG) int64 {
	maxOff := p.FileSize - p.RecLen
	off := r.Int64n(maxOff + 1)
	return off - off%p.PageSize
}

// genOLTP emits uniform point reads with exponential interarrivals: the
// flat-estimate workload where SLED reordering has nothing to gain.
func genOLTP(p Params, t *Trace) {
	for s := 0; s < p.Streams; s++ {
		r := p.streamRNG(s)
		var at simclock.Duration
		for i := 0; i < p.Records; i++ {
			at += simclock.Duration(r.Exp(float64(p.Interarrival)))
			t.Records = append(t.Records, Record{
				VTime:  at,
				Stream: s,
				File:   s,
				Off:    alignedOff(p, r),
				Len:    p.RecLen,
				Op:     OpRead,
			})
		}
	}
}

// genOLAP emits sequential range scans: each stream submits its whole scan
// at time 0 (one burst per query job) and covers its file front to back in
// RecLen chunks, wrapping if Records exceeds the file. The simultaneous
// arrivals mean a SLED-guided replayer may reorder the entire scan.
func genOLAP(p Params, t *Trace) {
	chunksPerFile := p.FileSize / p.RecLen
	for s := 0; s < p.Streams; s++ {
		for i := 0; i < p.Records; i++ {
			chunk := int64(i) % chunksPerFile
			off := chunk * p.RecLen
			n := p.RecLen
			if off+n > p.FileSize {
				n = p.FileSize - off
			}
			t.Records = append(t.Records, Record{
				Stream: s,
				File:   s,
				Off:    off,
				Len:    n,
				Op:     OpRead,
			})
		}
	}
}

// genHot emits Zipfian hot-set point ops with exponential arrivals: page
// rank 0 is the hottest, so the hot set sits at the front of each file
// (and can be pre-warmed by an experiment that wants a populated cache).
// With writes (class mixed) a seeded fraction of the ops are writes, the
// read/write mix every real system has; only then is the write coin
// drawn, so zipf's reads take the same draws either way.
func genHot(p Params, t *Trace, writes bool) {
	pages := int((p.FileSize - p.RecLen) / p.PageSize)
	if pages < 1 {
		pages = 1
	}
	z := NewZipf(pages, zipfS)
	for s := 0; s < p.Streams; s++ {
		r := p.streamRNG(s)
		var at simclock.Duration
		for i := 0; i < p.Records; i++ {
			at += simclock.Duration(r.Exp(float64(p.Interarrival)))
			op := OpRead
			if writes && r.Float64() < p.WriteFrac {
				op = OpWrite
			}
			t.Records = append(t.Records, Record{
				VTime:  at,
				Stream: s,
				File:   s,
				Off:    int64(z.Sample(r)) * p.PageSize,
				Len:    p.RecLen,
				Op:     op,
			})
		}
	}
}

// genBursty emits uniform point reads in bursts: burstLen simultaneous
// arrivals, then a gap. Gaps are modulated by a slow sinusoid — a
// compressed diurnal cycle, busy and quiet periods alternating over the
// trace.
func genBursty(p Params, t *Trace) {
	for s := 0; s < p.Streams; s++ {
		r := p.streamRNG(s)
		var at simclock.Duration
		nBursts := (p.Records + burstLen - 1) / burstLen
		emitted := 0
		for b := 0; b < nBursts; b++ {
			n := burstLen
			if emitted+n > p.Records {
				n = p.Records - emitted
			}
			for i := 0; i < n; i++ {
				t.Records = append(t.Records, Record{
					VTime:  at,
					Stream: s,
					File:   s,
					Off:    alignedOff(p, r),
					Len:    p.RecLen,
					Op:     OpRead,
				})
			}
			emitted += n
			// Diurnal modulation: gaps swing between 0.25x and 1.75x of the
			// mean over an 8-burst "day".
			phase := 2 * math.Pi * float64(b) / 8
			gap := float64(p.BurstGap) * (1 + 0.75*math.Sin(phase))
			at += simclock.Duration(r.Exp(gap))
		}
	}
}
