// Package stats provides the statistical machinery the paper's analysis
// rests on: empirical distributions (CDFs and quantiles), log-bucketed
// histograms, online moments, random-variate samplers for the synthetic
// workload, and autocorrelation/periodogram tools used to establish the
// one-day and one-week periodicity of the MSS request stream (§5.2).
package stats

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// paper (Figures 3 and 7–12). Samples are stored as bare float64s — the
// per-record hot-path representation. The zero value is ready to use.
type CDF struct {
	vals   []float64 // samples, insertion order until the first query sorts them
	sorted bool
}

// NewCDF returns a CDF pre-sized for n samples.
func NewCDF(n int) *CDF { return &CDF{vals: make([]float64, 0, n)} }

// Grow reserves room for n more samples, as slices.Grow does, so the
// next n Adds append without reallocating.
func (c *CDF) Grow(n int) { c.vals = slices.Grow(c.vals, n) }

// Add records one sample.
func (c *CDF) Add(v float64) {
	c.vals = append(c.vals, v)
	c.sorted = false
}

// N reports the number of samples.
func (c *CDF) N() int { return len(c.vals) }

// Prefix returns a CDF of the samples c holds now that shares their
// storage: c's later Adds append past its end, so neither changes the
// other's samples. Nothing may query c — which sorts it in place —
// while the prefix is read.
func (c *CDF) Prefix() *CDF { return &CDF{vals: slices.Clip(c.vals), sorted: c.sorted} }

// Merge appends every sample of other to c, in other's insertion order —
// exactly as if each had been Added individually. Used by the sharded
// streaming analysis to fold per-shard distributions together.
func (c *CDF) Merge(other *CDF) {
	if other == nil || len(other.vals) == 0 {
		return
	}
	c.vals = append(c.vals, other.vals...)
	c.sorted = false
}

// ensureSorted orders the samples by value, radix-sorting in a scratch
// of its own.
func (c *CDF) ensureSorted() { c.sortWith(nil) }

// sortWith is ensureSorted radix-sorting in scratch (nil: a fresh one,
// made only if the radix sort runs). It returns the scratch for the next
// sort.
func (c *CDF) sortWith(scratch *radixScratch) *radixScratch {
	if c.sorted {
		return scratch
	}
	scratch = sortFloats(c.vals, scratch)
	c.sorted = true
	return scratch
}

// sortLanes is how many sorts SortAll runs at once: each holds a
// scratch as large as the largest CDF it sorts, so more lanes cost
// memory the report keeps until it is done.
const sortLanes = 2

// SortAll sorts the samples of every CDF given, largest first, on
// sortLanes goroutines, so independent distributions sort side by side
// rather than one after another at their first query. Each lane keeps
// one radix scratch and hands it from each sort it finishes to the next
// it starts; largest first, a lane's first sort sizes it for the rest.
// Each CDF ends exactly as its own first query would leave it. The CDFs
// must be distinct; nil ones are skipped.
func SortAll(cs ...*CDF) {
	var todo []*CDF
	for _, c := range cs {
		if c != nil && !c.sorted {
			todo = append(todo, c)
		}
	}
	slices.SortStableFunc(todo, func(a, b *CDF) int { return len(b.vals) - len(a.vals) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(sortLanes, len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch *radixScratch
			for i := next.Add(1) - 1; i < int64(len(todo)); i = next.Add(1) - 1 {
				scratch = todo[i].sortWith(scratch)
			}
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

// radixScratch is what a radix sort works in besides the values
// themselves: the one buffer they move through, and the digit counts of
// every pass.
type radixScratch struct {
	buf    []float64
	counts [radixPasses][1 << radixBits]int
}

// radixKey maps a float's bits to an order-preserving unsigned key: a
// negative float has all its bits flipped, a positive one only its sign
// bit.
func radixKey(v float64) uint64 {
	k := math.Float64bits(v)
	return k ^ (uint64(int64(k)>>63) | 1<<63)
}

// sortFloats sorts vals ascending, leaving exactly the bits
// sort.Float64s would. From radixMin samples up it runs an LSD radix
// sort that moves the values themselves between vals and one scratch
// buffer, each pass taking its digit from the value's order-preserving
// key (radixKey); a pass is skipped when every key has the same digit
// there. Without NaN and −0, equal floats have equal bits, so the
// ascending sequence is unique and both sorts produce it; below
// radixMin, or when a sample is NaN or −0, it is sort.Float64s itself.
// The radix sort works in scratch — made when nil, its buffer grown
// when shorter than vals — which sortFloats returns for the next sort.
func sortFloats(vals []float64, scratch *radixScratch) *radixScratch {
	if len(vals) < radixMin {
		sort.Float64s(vals)
		return scratch
	}
	if scratch == nil {
		scratch = new(radixScratch)
	} else {
		scratch.counts = [radixPasses][1 << radixBits]int{}
	}
	counts := &scratch.counts
	for _, v := range vals {
		if v != v || math.Float64bits(v) == 1<<63 {
			sort.Float64s(vals)
			return scratch
		}
		k := radixKey(v)
		for p := range counts {
			counts[p][k>>(p*radixBits)&radixMask]++
		}
	}
	if cap(scratch.buf) < len(vals) {
		scratch.buf = make([]float64, len(vals))
	}
	src, dst := vals, scratch.buf[:len(vals)]
	for p := range counts {
		c, shift := &counts[p], p*radixBits
		if c[radixKey(src[0])>>shift&radixMask] == len(src) {
			continue
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, v := range src {
			d := radixKey(v) >> shift & radixMask
			dst[c[d]] = v
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &vals[0] {
		copy(vals, src)
	}
	return scratch
}

// P returns the empirical P(X <= v), in [0, 1]. P of an empty CDF is 0.
func (c *CDF) P(v float64) float64 {
	if len(c.vals) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.vals, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(c.vals))
}

// Quantile returns the q-th quantile (q in [0,1]) using the nearest-rank
// method. Quantile of an empty CDF is NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	c.ensureSorted()
	if q <= 0 {
		return c.vals[0]
	}
	if q >= 1 {
		return c.vals[len(c.vals)-1]
	}
	i := int(math.Ceil(q*float64(len(c.vals)))) - 1
	if i < 0 {
		i = 0
	}
	return c.vals[i]
}

// Median is Quantile(0.5).
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Mean returns the sample mean, or NaN when empty.
func (c *CDF) Mean() float64 {
	if len(c.vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range c.vals {
		s += v
	}
	return s / float64(len(c.vals))
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
// c in place: c must hold no negative samples, and takes no further
// samples while the curve is in use; the curve itself is read-only — Add
// is for curves built from pairs.
func SelfWeighted(c *CDF, total float64) *WeightedCDF {
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
