package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.P(1) != 0 {
		t.Error("P on empty CDF should be 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Error("quantile/mean on empty CDF should be NaN")
	}
	if !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) {
		t.Error("min/max on empty CDF should be NaN")
	}
}

func TestCDFBasics(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		c.Add(v)
	}
	if c.N() != 10 {
		t.Fatalf("N = %d, want 10", c.N())
	}
	if got := c.P(5); got != 0.5 {
		t.Errorf("P(5) = %v, want 0.5", got)
	}
	if got := c.P(0.5); got != 0 {
		t.Errorf("P(0.5) = %v, want 0", got)
	}
	if got := c.P(10); got != 1 {
		t.Errorf("P(10) = %v, want 1", got)
	}
	if got := c.Median(); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
	if got := c.Quantile(0.9); got != 9 {
		t.Errorf("Quantile(0.9) = %v, want 9", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v, want 10", got)
	}
	if got := c.Mean(); got != 5.5 {
		t.Errorf("Mean = %v, want 5.5", got)
	}
	if c.Min() != 1 || c.Max() != 10 {
		t.Errorf("Min/Max = %v/%v, want 1/10", c.Min(), c.Max())
	}
}

func TestCDFInterleavedAddAndQuery(t *testing.T) {
	var c CDF
	c.Add(3)
	c.Add(1)
	if got := c.Median(); got != 1 {
		t.Errorf("median of {1,3} = %v, want 1 (nearest rank)", got)
	}
	c.Add(2) // adding after a query must keep results correct
	if got := c.Median(); got != 2 {
		t.Errorf("median of {1,2,3} = %v, want 2", got)
	}
}

func TestCDFQuantileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		var c CDF
		ok := false
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				c.Add(v)
				ok = true
			}
		}
		if !ok {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFPAgainstDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var c CDF
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.NormFloat64() * 10
		c.Add(vals[i])
	}
	sort.Float64s(vals)
	for _, probe := range []float64{-20, -5, 0, 5, 20} {
		want := 0
		for _, v := range vals {
			if v <= probe {
				want++
			}
		}
		got := c.P(probe)
		if got != float64(want)/500 {
			t.Errorf("P(%v) = %v, want %v", probe, got, float64(want)/500)
		}
	}
}

func TestWeightedCDF(t *testing.T) {
	var w WeightedCDF
	// Two small files and a huge one: 50% of files < 3, holding tiny data.
	w.Add(1, 1)
	w.Add(2, 1)
	w.Add(100, 98)
	if got := w.P(2); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("P(2) = %v, want 0.02", got)
	}
	if got := w.P(100); got != 1 {
		t.Errorf("P(100) = %v, want 1", got)
	}
	if got := w.Quantile(0.5); got != 100 {
		t.Errorf("Quantile(0.5) = %v, want 100", got)
	}
	if w.TotalWeight() != 100 {
		t.Errorf("TotalWeight = %v, want 100", w.TotalWeight())
	}
	if w.N() != 3 {
		t.Errorf("N = %v, want 3", w.N())
	}
}

func TestWeightedCDFNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative weight")
		}
	}()
	var w WeightedCDF
	w.Add(1, -1)
}

func TestWeightedCDFPoints(t *testing.T) {
	var w WeightedCDF
	for i := 1; i <= 10; i++ {
		w.Add(float64(i), 1)
	}
	pts := w.Points([]float64{5, 2, 10})
	if pts[0].Y != 0.5 || pts[1].Y != 0.2 || pts[2].Y != 1.0 {
		t.Errorf("Points = %v", pts)
	}
	if pts[0].X != 5 || pts[1].X != 2 || pts[2].X != 10 {
		t.Errorf("Points preserved order wrong: %v", pts)
	}
}

func TestCDFPoints(t *testing.T) {
	var c CDF
	for i := 1; i <= 4; i++ {
		c.Add(float64(i))
	}
	pts := c.Points([]float64{0, 2, 4})
	want := []float64{0, 0.5, 1}
	for i, p := range pts {
		if p.Y != want[i] {
			t.Errorf("point %d: got %v want %v", i, p.Y, want[i])
		}
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(0.1, 100, 4)
	if len(xs) != 4 {
		t.Fatalf("len = %d", len(xs))
	}
	if math.Abs(xs[0]-0.1) > 1e-12 || math.Abs(xs[3]-100) > 1e-9 {
		t.Errorf("endpoints wrong: %v", xs)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Errorf("not ascending: %v", xs)
		}
	}
	ratio1 := xs[1] / xs[0]
	ratio2 := xs[2] / xs[1]
	if math.Abs(ratio1-ratio2) > 1e-9 {
		t.Errorf("not geometric: ratios %v %v", ratio1, ratio2)
	}
}

func TestLogSpacePanics(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		n      int
	}{{0, 1, 3}, {1, 1, 3}, {1, 10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogSpace(%v,%v,%d) should panic", c.lo, c.hi, c.n)
				}
			}()
			LogSpace(c.lo, c.hi, c.n)
		}()
	}
}

func TestPointString(t *testing.T) {
	p := Point{X: 10, Y: 0.5}
	if got := p.String(); got != "x=10 p=50.0%" {
		t.Errorf("String = %q", got)
	}
}

func TestCDFMerge(t *testing.T) {
	var whole, a, b CDF
	for i := 0; i < 100; i++ {
		v := float64((i * 37) % 100)
		whole.Add(v)
		if i < 60 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(&b)
	a.Merge(&CDF{}) // empty merge is a no-op
	a.Merge(nil)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := a.Quantile(q), whole.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v after merge, want %v", q, got, want)
		}
	}
	if got, want := a.Mean(), whole.Mean(); got != want {
		t.Fatalf("Mean = %v after in-order merge, want %v", got, want)
	}
}

// TestSortAll sorts CDFs of every shape side by side — radix-sized,
// small, holding weighted runs, holding a NaN, already sorted, empty,
// nil — and checks each ends exactly as its own serial sort leaves a
// twin fed the same samples. Run under -race it also checks the sorts
// share nothing.
func TestSortAll(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var got, want [7]CDF
	add := func(i int, v float64) { got[i].Add(v); want[i].Add(v) }
	for k := 0; k < 50000; k++ {
		add(0, rng.ExpFloat64())
		add(1, float64(rng.Intn(100)))
	}
	for k := 0; k < 100; k++ {
		add(2, rng.NormFloat64())
		add(3, rng.Float64())
	}
	got[3].AddN(0.5, 7)
	want[3].AddN(0.5, 7)
	for k := 0; k < 5000; k++ {
		add(4, rng.Float64())
	}
	add(4, math.NaN())
	add(5, 2)
	add(5, 1)
	got[5].Median()
	for i := range want {
		want[i].ensureSorted()
	}
	SortAll(&got[0], &got[1], &got[2], &got[3], &got[4], &got[5], &got[6], nil)
	for i := range got {
		g, w := &got[i], &want[i]
		if !g.sorted || g.n != w.n || len(g.vals) != len(w.vals) || len(g.qruns) != len(w.qruns) {
			t.Fatalf("CDF %d: sorted %v, n %d/%d, vals %d/%d, qruns %d/%d", i,
				g.sorted, g.n, w.n, len(g.vals), len(w.vals), len(g.qruns), len(w.qruns))
		}
		for k := range g.vals {
			if math.Float64bits(g.vals[k]) != math.Float64bits(w.vals[k]) {
				t.Fatalf("CDF %d: sample %d = %v, want %v", i, k, g.vals[k], w.vals[k])
			}
		}
		for k := range g.qruns {
			if g.qruns[k] != w.qruns[k] || g.cum[k] != w.cum[k] {
				t.Fatalf("CDF %d: run %d = %v/%d, want %v/%d", i, k, g.qruns[k], g.cum[k], w.qruns[k], w.cum[k])
			}
		}
	}
}

func TestWeightedCDFMerge(t *testing.T) {
	var whole, a, b WeightedCDF
	for i := 0; i < 50; i++ {
		v, w := float64(i%7), float64(1+i%3)
		whole.Add(v, w)
		if i < 20 {
			a.Add(v, w)
		} else {
			b.Add(v, w)
		}
	}
	a.Merge(&b)
	a.Merge(&WeightedCDF{})
	a.Merge(nil)
	if a.N() != whole.N() || a.TotalWeight() != whole.TotalWeight() {
		t.Fatalf("merged N/total = %d/%v, want %d/%v",
			a.N(), a.TotalWeight(), whole.N(), whole.TotalWeight())
	}
	for _, x := range []float64{0, 1, 3, 6} {
		if got, want := a.P(x), whole.P(x); got != want {
			t.Fatalf("P(%v) = %v after merge, want %v", x, got, want)
		}
	}
}

// TestAddNQuantileRegression pins the weighted-run storage: AddN must
// answer every distribution query exactly as the same samples fed one
// Add at a time — the behaviour before AddN became O(1) — including at
// byte-scale multiplicities that would be unaffordable to expand.
func TestAddNQuantileRegression(t *testing.T) {
	var weighted, expanded CDF
	samples := []struct {
		v float64
		n int
	}{
		{4, 3}, {1, 1}, {9, 5}, {4, 2}, {0.5, 4}, {7, 1}, {9, 0}, {2, -3},
	}
	for _, s := range samples {
		weighted.AddN(s.v, s.n)
		for i := 0; i < s.n; i++ {
			expanded.Add(s.v)
		}
	}
	if weighted.N() != expanded.N() {
		t.Fatalf("N = %d, want %d", weighted.N(), expanded.N())
	}
	for _, q := range []float64{-0.5, 0, 0.01, 0.25, 0.5, 0.75, 0.99, 1, 1.5} {
		if got, want := weighted.Quantile(q), expanded.Quantile(q); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	for _, x := range []float64{0, 0.5, 1, 3.9, 4, 8.9, 9, 100} {
		if got, want := weighted.P(x), expanded.P(x); got != want {
			t.Fatalf("P(%v) = %v, want %v", x, got, want)
		}
	}
	for _, f := range []func(*CDF) float64{(*CDF).Min, (*CDF).Max, (*CDF).Median, (*CDF).Mean} {
		if got, want := f(&weighted), f(&expanded); got != want {
			t.Fatalf("summary stat = %v, want %v", got, want)
		}
	}
}

// TestAddNConstantStorage verifies the satellite fix itself: a byte-scale
// multiplicity stores one run, not n copies.
func TestAddNConstantStorage(t *testing.T) {
	var c CDF
	c.AddN(1e6, 1<<30)
	c.AddN(2e6, 1<<30)
	if len(c.runs) != 2 {
		t.Fatalf("AddN stored %d runs, want 2", len(c.runs))
	}
	if c.N() != 2<<30 {
		t.Fatalf("N = %d, want %d", c.N(), 2<<30)
	}
	if got := c.Quantile(0.5); got != 1e6 {
		t.Fatalf("Quantile(0.5) = %v, want 1e6", got)
	}
	if got := c.P(1e6); got != 0.5 {
		t.Fatalf("P(1e6) = %v, want 0.5", got)
	}
}

// TestWeightedCDFQueryCache covers the cumulative-weight table through
// interleaved queries and mutations (a mutation must invalidate it).
func TestWeightedCDFQueryCache(t *testing.T) {
	var c WeightedCDF
	c.Add(10, 5)
	c.Add(20, 15)
	if got := c.P(10); got != 0.25 {
		t.Fatalf("P(10) = %v, want 0.25", got)
	}
	c.Add(5, 20) // after a query: cache must rebuild
	if got := c.P(5); got != 0.5 {
		t.Fatalf("P(5) = %v, want 0.5", got)
	}
	if got := c.Quantile(0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", got)
	}
	if got := c.Quantile(0.51); got != 10 {
		t.Fatalf("Quantile(0.51) = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 20 {
		t.Fatalf("Quantile(1) = %v, want 20", got)
	}
}
