package trace

// Seeded randomness for the generators. The module bans math/rand
// (sledlint's seedflow rule): every stochastic choice here comes from an
// explicit splitmix64 stream owned by one generator call, so identical
// parameters produce identical traces on every machine, at every worker
// count, in any call order.

import (
	"math"
	"sort"

	"sleds/internal/splitmix"
)

// RNG is a splitmix64 pseudo-random stream.
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 advances the stream and returns a well-mixed 64-bit value.
func (r *RNG) Uint64() uint64 { return splitmix.Next(&r.state) }

// Int64n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("trace: Int64n with non-positive bound")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean
// (inverse-CDF on the stream's next uniform draw).
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	// 1-u is in (0, 1], so the log is finite.
	return -mean * math.Log(1-u)
}

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s: rank 0 is the hottest. The cumulative distribution is
// precomputed at construction, so Sample is one binary search and zero
// allocations — the property the generator benchmarks pin.
type Zipf struct {
	cum []float64 // cum[i] = P(rank <= i); cum[n-1] == 1
}

// NewZipf builds a sampler over n ranks with skew s (s = 0 is uniform;
// the classic hot-set skew is s around 1).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("trace: Zipf with no ranks")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // exact, despite rounding
	return &Zipf{cum: cum}
}

// Sample draws one rank from the stream: the first with cum >= u, which
// exists because u < 1 = cum[n-1]. BenchmarkZipfSample pins it at 0
// allocs/op.
func (z *Zipf) Sample(r *RNG) int {
	return sort.SearchFloat64s(z.cum, r.Float64())
}
