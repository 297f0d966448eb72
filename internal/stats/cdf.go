// Package stats provides the statistical machinery the paper's analysis
// rests on: empirical distributions (CDFs and quantiles), log-bucketed
// histograms, online moments, random-variate samplers for the synthetic
// workload, and autocorrelation/periodogram tools used to establish the
// one-day and one-week periodicity of the MSS request stream (§5.2).
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// byValue is the three-way form of the less function `a < b` for
// slices.SortFunc: negative exactly when a < b, so the sort visits the
// same comparisons and lands on the same permutation — ties included —
// as sort.Slice with that less function did.
func byValue(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// CDF accumulates sample values and answers empirical-distribution queries.
// It is the workhorse behind every cumulative-percentage figure in the
// paper (Figures 3 and 7–12). Unit samples (Add) are stored as bare
// float64s — the per-record hot-path representation — while AddN stores
// one (value, multiplicity) run however large the multiplicity, so
// byte-scale weights cost one run, not one appended copy per byte. The
// zero value is ready to use.
type CDF struct {
	vals   []float64 // unit samples, insertion order
	runs   []run     // weighted samples (AddN), insertion order
	n      int64     // total multiplicity across vals and runs
	sorted bool

	// Merged query view, built by ensureSorted only when runs exist:
	// qruns is vals and runs interleaved in value order, cum its
	// cumulative multiplicities. Run-free CDFs query vals directly.
	qruns []run
	cum   []int64
}

// run is one stored sample with its multiplicity.
type run struct {
	v float64
	n int64
}

// NewCDF returns a CDF pre-sized for n samples.
func NewCDF(n int) *CDF { return &CDF{vals: make([]float64, 0, n)} }

// Add records one sample.
func (c *CDF) Add(v float64) {
	c.vals = append(c.vals, v)
	c.n++
	c.sorted = false
}

// AddN records the sample v with multiplicity n (used for byte-weighted
// distributions where a request of s bytes contributes weight s). It
// stores at most one run regardless of n; n <= 0 records nothing.
func (c *CDF) AddN(v float64, n int) {
	switch {
	case n <= 0:
		return
	case n == 1:
		c.Add(v)
		return
	}
	c.runs = append(c.runs, run{v, int64(n)})
	c.n += int64(n)
	c.sorted = false
}

// N reports the number of samples, counting multiplicities.
func (c *CDF) N() int { return int(c.n) }

// Merge appends every sample of other to c, in other's insertion order —
// exactly as if each had been Added individually. Used by the sharded
// streaming analysis to fold per-shard distributions together.
func (c *CDF) Merge(other *CDF) {
	if other == nil || other.n == 0 {
		return
	}
	c.vals = append(c.vals, other.vals...)
	c.runs = append(c.runs, other.runs...)
	c.n += other.n
	c.sorted = false
}

// ensureSorted orders the samples by value. A run-free CDF (the hot
// case) just sorts vals; otherwise the weighted runs and unit samples
// are merged into the qruns/cum view queries binary-search over. The
// runs keep pdqsort: ties among them carry unequal multiplicities, so
// their order feeds the cumulative table.
func (c *CDF) ensureSorted() {
	if c.sorted {
		return
	}
	sortFloats(c.vals)
	if len(c.runs) > 0 {
		slices.SortFunc(c.runs, func(a, b run) int { return byValue(a.v, b.v) })
		c.qruns = c.qruns[:0]
		if cap(c.qruns) < len(c.vals)+len(c.runs) {
			c.qruns = make([]run, 0, len(c.vals)+len(c.runs))
		}
		i, j := 0, 0
		for i < len(c.vals) || j < len(c.runs) {
			if j >= len(c.runs) || (i < len(c.vals) && c.vals[i] <= c.runs[j].v) {
				c.qruns = append(c.qruns, run{c.vals[i], 1})
				i++
			} else {
				c.qruns = append(c.qruns, c.runs[j])
				j++
			}
		}
		if cap(c.cum) < len(c.qruns) {
			c.cum = make([]int64, len(c.qruns))
		}
		c.cum = c.cum[:len(c.qruns)]
		var total int64
		for k, r := range c.qruns {
			total += r.n
			c.cum[k] = total
		}
	}
	c.sorted = true
}

// SortAll sorts the samples of every CDF given, one goroutine per CDF
// that needs it, so independent distributions sort side by side rather
// than one after another at their first query. Each ends exactly as its
// own first query would leave it. The CDFs must be distinct; nil ones
// are skipped.
func SortAll(cs ...*CDF) {
	var wg sync.WaitGroup
	for _, c := range cs {
		if c == nil || c.sorted {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.ensureSorted()
		}()
	}
	wg.Wait()
}

// Radix sort parameters for unit samples: from radixMin samples up,
// radixPasses passes of radixBits-bit digits cover a 64-bit key.
const (
	radixMin    = 4096
	radixBits   = 11
	radixPasses = (64 + radixBits - 1) / radixBits
	radixMask   = 1<<radixBits - 1
)

// sortFloats sorts vals ascending, leaving exactly the bits
// sort.Float64s would. From radixMin samples up it runs an LSD radix
// sort over order-preserving keys (a negative float has all its bits
// flipped, a positive one only its sign bit); a pass is skipped when
// every key has the same digit there. Without NaN and −0, equal floats
// have equal bits, so the ascending sequence is unique and both sorts
// produce it; below radixMin, or when a sample is NaN or −0, it is
// sort.Float64s itself.
func sortFloats(vals []float64) {
	if len(vals) < radixMin {
		sort.Float64s(vals)
		return
	}
	keys := make([]uint64, len(vals))
	counts := new([radixPasses][1 << radixBits]int)
	for i, v := range vals {
		k := math.Float64bits(v)
		if v != v || k == 1<<63 {
			sort.Float64s(vals)
			return
		}
		if k>>63 == 1 {
			k = ^k
		} else {
			k |= 1 << 63
		}
		keys[i] = k
		for p := range counts {
			counts[p][k>>(p*radixBits)&radixMask]++
		}
	}
	src, dst := keys, make([]uint64, len(keys))
	for p := range counts {
		c, shift := &counts[p], p*radixBits
		if c[src[0]>>shift&radixMask] == len(src) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, k := range src {
			d := k >> shift & radixMask
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		if k>>63 == 1 {
			k &^= 1 << 63
		} else {
			k = ^k
		}
		vals[i] = math.Float64frombits(k)
	}
}

// P returns the empirical P(X <= v), in [0, 1]. P of an empty CDF is 0.
func (c *CDF) P(v float64) float64 {
	if c.n == 0 {
		return 0
	}
	c.ensureSorted()
	if len(c.runs) == 0 {
		i := sort.SearchFloat64s(c.vals, math.Nextafter(v, math.Inf(1)))
		return float64(i) / float64(c.n)
	}
	i := sort.Search(len(c.qruns), func(i int) bool { return c.qruns[i].v > v })
	if i == 0 {
		return 0
	}
	return float64(c.cum[i-1]) / float64(c.n)
}

// Quantile returns the q-th quantile (q in [0,1]) using the nearest-rank
// method. Quantile of an empty CDF is NaN.
func (c *CDF) Quantile(q float64) float64 {
	if c.n == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	if len(c.runs) == 0 {
		if q <= 0 {
			return c.vals[0]
		}
		if q >= 1 {
			return c.vals[len(c.vals)-1]
		}
		i := int(math.Ceil(q*float64(c.n))) - 1
		if i < 0 {
			i = 0
		}
		return c.vals[i]
	}
	if q <= 0 {
		return c.qruns[0].v
	}
	if q >= 1 {
		return c.qruns[len(c.qruns)-1].v
	}
	rank := int64(math.Ceil(q * float64(c.n)))
	if rank < 1 {
		rank = 1
	}
	i := sort.Search(len(c.cum), func(i int) bool { return c.cum[i] >= rank })
	return c.qruns[i].v
}

// Median is Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Mean returns the sample mean, or NaN when empty.
func (c *CDF) Mean() float64 {
	if c.n == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range c.vals {
		s += v
	}
	for _, r := range c.runs {
		s += r.v * float64(r.n)
	}
	return s / float64(c.n)
}

// Min returns the smallest sample, or NaN when empty.
func (c *CDF) Min() float64 {
	if c.n == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	if len(c.runs) == 0 {
		return c.vals[0]
	}
	return c.qruns[0].v
}

// Max returns the largest sample, or NaN when empty.
func (c *CDF) Max() float64 {
	if c.n == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	if len(c.runs) == 0 {
		return c.vals[len(c.vals)-1]
	}
	return c.qruns[len(c.qruns)-1].v
}

// Points samples the CDF at the given x values, returning cumulative
// fractions; this is how figure series are rendered for printing.
func (c *CDF) Points(xs []float64) []Point {
	pts := make([]Point, len(xs))
	for i, x := range xs {
		pts[i] = Point{X: x, Y: c.P(x)}
	}
	return pts
}

// Point is a single (x, cumulative fraction) sample of a distribution.
type Point struct {
	X, Y float64
}

// String renders the point as "x=VAL p=FRAC%".
func (p Point) String() string {
	return fmt.Sprintf("x=%g p=%.1f%%", p.X, 100*p.Y)
}

// WeightedCDF is a CDF over (value, weight) pairs — e.g. "fraction of all
// bytes in files of size <= s" (the data curves of Figures 10–12). Each
// Add stores one pair whatever the weight, and queries binary-search a
// cumulative-weight table, so P and Quantile are O(log n) after the sort
// instead of the historical O(n) rescan per query. The zero value is
// ready to use.
type WeightedCDF struct {
	pairs  []weighted
	src    *CDF // a derived curve's samples (SelfWeighted); pairs is then unused
	total  float64
	sorted bool
	cum    []float64 // cumulative weights over the sorted samples
}

type weighted struct{ v, w float64 }

// SelfWeighted returns the weighted curve over c's unit samples in which
// every sample weighs its own value — the byte-weighted twin of a size
// distribution — answering every query with the bits a WeightedCDF fed
// Add(v, v) per sample would, without holding or sorting the samples a
// second time: equal values carry equal weights, so the cumulative table
// is the prefix sum of c's own sorted samples whatever order a sort
// leaves ties in. total is the samples' sum accumulated in insertion
// order (what such a WeightedCDF's TotalWeight would be). The curve reads
// c in place: c must hold no AddN runs or negative samples, and takes no
// further samples while the curve is in use; the curve itself is
// read-only — Add and Merge are for curves built from pairs.
func SelfWeighted(c *CDF, total float64) *WeightedCDF {
	if len(c.runs) > 0 {
		panic("stats: SelfWeighted over a CDF holding weighted runs")
	}
	return &WeightedCDF{src: c, total: total}
}

// Add records value v carrying weight w (w must be >= 0).
func (c *WeightedCDF) Add(v, w float64) {
	if w < 0 {
		panic("stats: negative weight")
	}
	c.pairs = append(c.pairs, weighted{v, w})
	c.total += w
	c.sorted = false
}

// N reports the number of (value, weight) pairs added.
func (c *WeightedCDF) N() int {
	if c.src != nil {
		return len(c.src.vals)
	}
	return len(c.pairs)
}

// value returns the i-th smallest sample value; ensureSorted first.
func (c *WeightedCDF) value(i int) float64 {
	if c.src != nil {
		return c.src.vals[i]
	}
	return c.pairs[i].v
}

// Merge appends every (value, weight) pair of other to c in insertion
// order. The total is re-accumulated pair by pair, so a sequence of
// shard-local Adds followed by in-order Merges produces bit-identical
// state to one sequential Add stream.
func (c *WeightedCDF) Merge(other *WeightedCDF) {
	if other == nil || len(other.pairs) == 0 {
		return
	}
	c.pairs = append(c.pairs, other.pairs...)
	for _, p := range other.pairs {
		c.total += p.w //lint:floatsum-ok re-accumulated pair by pair in insertion order, bit-identical to one sequential Add stream
	}
	c.sorted = false
}

// TotalWeight reports the sum of all weights.
func (c *WeightedCDF) TotalWeight() float64 { return c.total }

// ensureSorted orders the samples by value and rebuilds the cumulative
// weight table. The table is accumulated left to right, so every query
// returns the same float sums the historical per-query rescan produced.
func (c *WeightedCDF) ensureSorted() {
	if c.sorted {
		return
	}
	n := c.N()
	if cap(c.cum) < n {
		c.cum = make([]float64, n)
	}
	c.cum = c.cum[:n]
	w := 0.0
	if c.src != nil {
		c.src.ensureSorted()
		if len(c.src.vals) > 0 && c.src.vals[0] < 0 {
			panic("stats: negative weight")
		}
		for i, v := range c.src.vals {
			w += v
			c.cum[i] = w
		}
	} else {
		slices.SortFunc(c.pairs, func(a, b weighted) int { return byValue(a.v, b.v) })
		for i, p := range c.pairs {
			w += p.w
			c.cum[i] = w
		}
	}
	c.sorted = true
}

// P returns the weight fraction with value <= v.
func (c *WeightedCDF) P(v float64) float64 {
	if c.total == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.Search(c.N(), func(i int) bool { return c.value(i) > v })
	if i == 0 {
		return 0
	}
	return c.cum[i-1] / c.total
}

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

// Points samples the weighted CDF at the given x values.
func (c *WeightedCDF) Points(xs []float64) []Point {
	pts := make([]Point, len(xs))
	c.ensureSorted()
	for j, x := range xs {
		pts[j] = Point{X: x, Y: c.P(x)}
	}
	return pts
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
