package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default "exclusive" method),
// so a spread computed here matches the one the acceptance driver
// computes from the same values. Fewer than two values have no spread:
// all three cut points are the value itself (zero for none).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	s := sorted(v)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile: the smallest value with at
// least the fraction p of the samples at or below it. p99 of n samples
// therefore leaves floor(n/100) samples beyond it.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	} else if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// spread is the distance between the first and third quartile as a share
// of the median — the run-to-run spread the regression bounds are judged
// against. Zero when the median is zero.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
