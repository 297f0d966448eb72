package main

import (
	"math"
	"testing"
)

// near compares floats to a relative tolerance.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython holds quartiles to the values Python's
// statistics.quantiles(v, n=4) prints for the same vectors.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 12, 11}, [3]float64{10, 11, 12}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4.2, 4.6, 4.8, 4.3, 5.1}, [3]float64{4.25, 4.6, 4.95}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{nil, [3]float64{0, 0, 0}},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.v, q1, q2, q3, tc.want)
		}
	}
}

func TestMedianPercentileSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // unsorted on purpose: 1000..1
	}
	// Nearest rank: p99 of 1..1000 is 990, leaving ten samples beyond.
	for _, tc := range []struct{ p, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// spread = (q3 - q1) / median.
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPooledMetric(t *testing.T) {
	m := pooled("lat", "ms", 0.5, [][]float64{{1, 2, 3}, {10, 20, 30}})
	if m.N != 6 || m.Value != 3 || len(m.Runs) != 2 || m.Runs[0] != 2 || m.Runs[1] != 20 {
		t.Errorf("pooled = %+v", m)
	}
	if r := perRep("wall_s", "s", []float64{3, 1, 2}); r.Value != 2 || r.N != 3 || r.Min != 1 || r.Max != 3 {
		t.Errorf("perRep = %+v", r)
	}
}
