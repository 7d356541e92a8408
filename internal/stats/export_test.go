package stats

import (
	"math"
	"sort"
)

// At returns P(X <= x), in [0,1]. An empty CDF returns 0 everywhere.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}
