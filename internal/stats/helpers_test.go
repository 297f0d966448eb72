package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Test-only helpers: probes and fixtures that the tests build curves and
// mixtures with, and no command needs.

// TotalWeight reports the sum of all weights.
func (c *WeightedCDF) TotalWeight() float64 { return c.total }

// Quantile returns the smallest value v such that P(v) >= q.
func (c *WeightedCDF) Quantile(q float64) float64 {
	n := c.N()
	if n == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	target := q * c.total
	i := sort.Search(n, func(i int) bool { return c.cum[i] >= target })
	if i >= n {
		return c.value(n - 1)
	}
	return c.value(i)
}

// LogSpace returns n points logarithmically spaced in [lo, hi] inclusive;
// used for the x axes of the paper's log-scale figures.
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic("stats: LogSpace requires 0 < lo < hi and n >= 2")
	}
	xs := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := range xs {
		xs[i] = x
		x *= ratio
	}
	xs[n-1] = hi
	return xs
}

// Constant always returns V. Useful as a mixture component (e.g. the 8 MB
// climate-model write bump visible in Figure 10).
type Constant struct{ V float64 }

// Sample implements Sampler.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Mean reports the analytic mean exp(mu + sigma^2/2).
func (l Lognormal) Mean() float64 {
	return l.Median * math.Exp(l.Sigma*l.Sigma/2)
}
