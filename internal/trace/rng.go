package trace

// Seeded randomness for the generators. The module bans math/rand
// (sledlint's seedflow rule): every stochastic choice here comes from an
// explicit splitmix64 stream owned by one generator call, so identical
// parameters produce identical traces on every machine, at every worker
// count, in any call order.

import (
	"math"

	"sleds/internal/splitmix"
)

// RNG is a splitmix64 pseudo-random stream.
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 advances the stream and returns a well-mixed 64-bit value.
//
//sledlint:hotpath
func (r *RNG) Uint64() uint64 { return splitmix.Next(&r.state) }

// Int64n returns a uniform value in [0, n). n must be positive.
//
//sledlint:hotpath
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("trace: Int64n with non-positive bound")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
//
//sledlint:hotpath
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean
// (inverse-CDF on the stream's next uniform draw).
//
//sledlint:hotpath
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

// Sample draws one rank from the stream. One binary search, zero
// allocations — the property the generator benchmarks pin.
//
//sledlint:hotpath
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	// Binary search for the first rank with cum >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
