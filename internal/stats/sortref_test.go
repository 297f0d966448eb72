package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The reflection-swapper sorts the query paths used before they moved to
// slices.SortFunc, kept as the reference: both are the same pdqsort, so
// given a comparator that is negative exactly when the old less function
// was true they must land on the same permutation — which matters
// wherever ties carry unequal weights, because cumulative float sums
// depend on tie order.

func refSortPairs(p []weighted) {
	sort.Slice(p, func(i, j int) bool { return p[i].v < p[j].v })
}

func refSortByPower(p []PeriodogramPoint) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].Power != p[j].Power {
			return p[i].Power > p[j].Power
		}
		return p[i].Period < p[j].Period
	})
}

// sortSizes straddles pdqsort's regimes: insertion sort up to 12, the
// ninther above 50, and pattern breaking on the larger ones.
var sortSizes = []int{0, 1, 2, 11, 12, 13, 49, 50, 51, 500, 5000}

// TestWeightedCDFSortMatchesReference is Figure 12's shape: few distinct
// values (files per directory), many ties, every tie a different weight.
func TestWeightedCDFSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range sortSizes {
		var c WeightedCDF
		for i := 0; i < n; i++ {
			c.Add(float64(1+rng.Intn(9)), rng.Float64()*1e9)
		}
		ref := slices.Clone(c.pairs)
		refSortPairs(ref)
		c.ensureSorted()
		if !slices.Equal(c.pairs, ref) {
			t.Fatalf("n=%d: slices.SortFunc left the pairs in a different order than sort.Slice", n)
		}
		w := 0.0
		for i, p := range ref {
			w += p.w
			if math.Float64bits(c.cum[i]) != math.Float64bits(w) {
				t.Fatalf("n=%d: cum[%d] = %v, reference %v", n, i, c.cum[i], w)
			}
		}
	}
}

// TestCDFSortMatchesFloat64s holds the unit-sample sort to
// sort.Float64s bit for bit, on both sides of the radix cutoff: heavy
// ties, ±Inf, subnormals, the extreme normals, sorted and reversed
// input, and inputs holding a NaN or a −0, which take the fallback.
func TestCDFSortMatchesFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	extremes := []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, 0}
	inputs := []struct {
		name string
		gen  func(i int) float64
	}{
		{"ties", func(int) float64 { return float64(rng.Intn(7)) * 4096 }},
		{"extremes", func(int) float64 { return extremes[rng.Intn(len(extremes))] }},
		{"subnormals", func(int) float64 { return float64(rng.Intn(2000)-1000) * math.SmallestNonzeroFloat64 }},
		{"random", func(int) float64 { return (rng.Float64() - 0.3) * math.Exp(rng.Float64()*60) }},
		{"sorted", func(i int) float64 { return float64(i) - 1000.5 }},
		{"reversed", func(i int) float64 { return 1000.5 - float64(i) }},
	}
	sizes := append([]int{4095, 4096, 4097, 100000}, sortSizes...)
	for _, in := range inputs {
		for _, n := range sizes {
			for _, poison := range []float64{1, math.NaN(), math.Copysign(0, -1)} { // 1 plants nothing
				var c CDF
				for i := 0; i < n; i++ {
					c.Add(in.gen(i))
				}
				if n > 0 && poison != 1 {
					c.vals[rng.Intn(n)] = poison
				}
				ref := slices.Clone(c.vals)
				sort.Float64s(ref)
				c.ensureSorted()
				for i := range ref {
					if math.Float64bits(c.vals[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s n=%d poison=%v: [%d] = %v, sort.Float64s %v", in.name, n, poison, i, c.vals[i], ref[i])
					}
				}
			}
		}
	}
}

func TestRankPeriodsSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range sortSizes {
		pts := make([]PeriodogramPoint, n)
		for i := range pts {
			pts[i] = PeriodogramPoint{Period: float64(1 + rng.Intn(40)), Power: float64(rng.Intn(6))}
		}
		ref := slices.Clone(pts)
		refSortByPower(ref)
		var want []float64
		for _, p := range ref {
			want = append(want, p.Period)
		}
		// A negative tol and max n turn the ranking into the bare sorted order.
		if got := rankPeriods(pts, math.Inf(1), n, -1); !slices.Equal(got, want) {
			t.Fatalf("n=%d: ranked %v, reference order %v", n, got, want)
		}
	}
}

// requireSameCurve holds a derived self-weighted curve to the reference
// it replaces — a WeightedCDF fed Add(v, v) per sample — bit for bit.
func requireSameCurve(t *testing.T, label string, samples []float64) {
	t.Helper()
	var ref WeightedCDF
	var src CDF
	total := 0.0
	for _, v := range samples {
		ref.Add(v, v)
		src.Add(v)
		total += v
	}
	got := SelfWeighted(&src, total)
	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s = %v, reference %v", label, what, a, b)
		}
	}
	if got.N() != ref.N() {
		t.Fatalf("%s: N = %d, reference %d", label, got.N(), ref.N())
	}
	same("TotalWeight", got.TotalWeight(), ref.TotalWeight())
	xs := append(slices.Clone(samples), 0, -1, math.Inf(1))
	xs = append(xs, LogSpace(1, 1e12, 97)...)
	for _, x := range xs {
		same("P", got.P(x), ref.P(x))
		same("P just below", got.P(math.Nextafter(x, math.Inf(-1))), ref.P(math.Nextafter(x, math.Inf(-1))))
	}
	for q := 0.0; q <= 1; q += 1.0 / 512 {
		same("Quantile", got.Quantile(q), ref.Quantile(q))
	}
}

// TestSelfWeightedMatchesReference covers the empty curve, heavy ties,
// zero-valued samples, and a fuzz-sized random fixture whose running
// total long since stopped being exact; the workload-shaped fixture is
// TestSelfWeightedOverWorkload in scenario_test.go.
func TestSelfWeightedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	requireSameCurve(t, "empty", nil)
	requireSameCurve(t, "zeros", []float64{0, 0, 0})
	ties := make([]float64, 3000)
	for i := range ties {
		ties[i] = float64(rng.Intn(7)) * 4096
	}
	requireSameCurve(t, "ties", ties)
	random := make([]float64, 20000)
	for i := range random {
		random[i] = math.Floor(math.Exp(rng.Float64()*40)) + rng.Float64()
	}
	requireSameCurve(t, "random", random)
}

func TestSelfWeightedRejectsMisuse(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	var neg CDF
	neg.Add(-1)
	mustPanic("a negative sample", func() { SelfWeighted(&neg, -1).Quantile(0.5) })
}
