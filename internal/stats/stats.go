// Package stats implements the small amount of statistics the paper's
// evaluation methodology requires: sample means, 90% confidence intervals
// via the Student t distribution (the paper runs every configuration twelve
// times and plots mean ± 90% CI), cumulative distribution functions
// (Figure 13), and speedup ratios between paired series (Figures 8 and 12).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// tTable90 holds two-sided 90% critical values of the Student t
// distribution indexed by degrees of freedom (1-based). Values beyond the
// table fall back to the normal approximation 1.645.
var tTable90 = []float64{
	0,     // df=0 unused
	6.314, // 1
	2.920, // 2
	2.353, // 3
	2.132, // 4
	2.015, // 5
	1.943, // 6
	1.895, // 7
	1.860, // 8
	1.833, // 9
	1.812, // 10
	1.796, // 11  <- twelve runs, as in the paper
	1.782, // 12
	1.771, // 13
	1.761, // 14
	1.753, // 15
	1.746, // 16
	1.740, // 17
	1.734, // 18
	1.729, // 19
	1.725, // 20
	1.721, // 21
	1.717, // 22
	1.714, // 23
	1.711, // 24
	1.708, // 25
	1.706, // 26
	1.703, // 27
	1.701, // 28
	1.699, // 29
	1.697, // 30
}

// tCritical90 returns the two-sided 90% t critical value for the given
// degrees of freedom.
func tCritical90(df int) float64 {
	if df <= 0 {
		return 0
	}
	if df < len(tTable90) {
		return tTable90[df]
	}
	return 1.645
}

// Sample accumulates observations of a scalar measurement.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample (n-1) standard deviation; 0 for fewer than two
// observations.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CI90 returns the half-width of the two-sided 90% confidence interval on
// the mean (mean ± CI90). Zero for fewer than two observations.
func (s *Sample) CI90() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCritical90(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// Summary is the reduced form of a sample as reported in the paper's plots:
// mean plus 90% confidence half-width.
type Summary struct {
	N    int
	Mean float64
	CI90 float64
	Min  float64
	Max  float64
}

// Summarize reduces a sample to its Summary.
func (s *Sample) Summarize() Summary {
	return Summary{N: s.N(), Mean: s.Mean(), CI90: s.CI90(), Min: s.Min(), Max: s.Max()}
}

// String renders "mean ± ci" with three significant figures.
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.CI90)
}

// CDF is an empirical cumulative distribution function over a set of
// observations (paper Figure 13).
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from observations. The input slice is not
// retained.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Quantile returns the smallest observation x with P(X <= x) >= p.
// p is clamped to (0, 1].
func (c *CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p > 1 {
		p = 1
	}
	// The small epsilon absorbs float rounding when p was itself computed
	// as a rank fraction k/n: without it, ceil((k/n)*n) can land on k+1.
	i := int(math.Ceil(p*float64(len(c.sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Points returns the (x, P(X<=x)) step points of the CDF, one per
// observation, suitable for plotting.
func (c *CDF) Points() [][2]float64 {
	pts := make([][2]float64, len(c.sorted))
	n := float64(len(c.sorted))
	for i, x := range c.sorted {
		pts[i] = [2]float64{x, float64(i+1) / n}
	}
	return pts
}

// Speedup computes pointwise ratios base/improved for two paired series, as
// in the paper's Figures 8 and 12 where "the execution time without SLEDs
// is divided by the execution time with SLEDs". It panics if the series
// lengths differ.
func Speedup(base, improved []float64) []float64 {
	if len(base) != len(improved) {
		panic(fmt.Sprintf("stats: speedup over mismatched series (%d vs %d)", len(base), len(improved)))
	}
	out := make([]float64, len(base))
	for i := range base {
		if improved[i] == 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = base[i] / improved[i]
	}
	return out
}
