package stats

import "math"

// Moments accumulates a running mean online (Welford's update), for the
// summary rows that need means over millions of records without
// retaining them. The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
}

// Add records one sample.
func (m *Moments) Add(v float64) {
	m.n++
	m.mean += (v - m.mean) / float64(m.n)
}

// Mean reports the sample mean, or NaN when empty.
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mean
}
