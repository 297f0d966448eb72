package stats

import (
	"math"
	"math/cmplx"
	"slices"
)

// The paper's first headline finding (§1, §5.2) is that MSS requests are
// periodic with one-day and one-week periods, driven by human read
// activity. This file provides the two standard tools to establish that
// from an hourly activity series: the sample autocorrelation function and a
// discrete-Fourier periodogram, plus a peak finder that reports dominant
// periods.

// Autocorrelation returns the sample autocorrelation of series at lags
// 0..maxLag. The series is mean-centred; lag 0 is always 1 (unless the
// series is constant, in which case all lags are 0).
func Autocorrelation(series []float64, maxLag int) []float64 {
	n := len(series)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	var denom float64
	for _, v := range series {
		d := v - mean
		denom += d * d
	}
	ac := make([]float64, maxLag+1)
	if denom == 0 {
		return ac
	}
	for lag := 0; lag <= maxLag; lag++ {
		var num float64
		for i := 0; i+lag < n; i++ {
			num += (series[i] - mean) * (series[i+lag] - mean)
		}
		ac[lag] = num / denom
	}
	return ac
}

// PeriodogramPoint is the spectral power at one period (in samples).
type PeriodogramPoint struct {
	Period float64 // in sample units (e.g. hours)
	Power  float64
}

// Periodogram computes the discrete Fourier periodogram of the
// mean-centred series, Power = |X[k]|²/n at the frequencies k/n for
// k = 1..n/2, returning points sorted by period ascending.
//
// The spectrum is evaluated in O(n log n) for any n — prime lengths
// included — by Bluestein's chirp-z identity kt = (k² + t² − (k−t)²)/2,
// which turns the length-n DFT into one circular convolution with the
// chirp e^{iπj²/n}, carried out by radix-2 FFTs of the next power of two
// at or above 2n−1. Zero-padding happens only inside that convolution,
// never on the signal, so the frequency grid is exactly k/n and every
// Period is the same float64(n)/float64(k) a direct DFT reports. Chirp
// angles are formed from j² reduced mod 2n in integers, so rounding error
// grows with log n and not with n: against the direct O(n²) sum kept in
// periodic_test.go every Power differs by under 1e-13 of the spectrum's
// largest (5·10⁻¹⁵ measured on the 17,544-sample two-year hourly series;
// the tests hold 1e-9 for lengths from 4 to 17,545).
func Periodogram(series []float64) []PeriodogramPoint {
	n := len(series)
	if n < 4 {
		return nil
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)

	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	// chirp[j] = e^{-iπj²/n}. The angle depends on j² only mod 2n.
	chirp := make([]complex128, n)
	for j := range chirp {
		sin, cos := math.Sincos(math.Pi * float64(uint64(j)*uint64(j)%uint64(2*n)) / float64(n))
		chirp[j] = complex(cos, -sin)
	}
	twiddles := make([]complex128, m/2)
	for j := range twiddles {
		sin, cos := math.Sincos(2 * math.Pi * float64(j) / float64(m))
		twiddles[j] = complex(cos, -sin)
	}
	// X[k] = chirp[k] · Σ_t (x[t]·chirp[t]) · conj(chirp[k−t]): chirped
	// holds the bracketed product, filter the conjugate chirp wrapped to
	// negative lags, both zero-filled out to the convolution length.
	chirped := make([]complex128, m)
	filter := make([]complex128, m)
	for t, v := range series {
		c := v - mean
		chirped[t] = complex(c*real(chirp[t]), c*imag(chirp[t]))
	}
	filter[0] = 1
	for j := 1; j < n; j++ {
		filter[j] = cmplx.Conj(chirp[j])
		filter[m-j] = filter[j]
	}
	chirpConvolve(chirped, filter, twiddles)

	// The inverse transform is the forward one read backwards and scaled
	// by 1/m, and the closing chirp[k] factor has unit modulus; neither
	// changes |X[k]| beyond the scale.
	scale := 1 / float64(m)
	pts := make([]PeriodogramPoint, n/2)
	for k := 1; k <= n/2; k++ {
		x := chirped[m-k]
		re, im := real(x)*scale, imag(x)*scale
		// Ascending period is descending k: fill back to front.
		pts[n/2-k] = PeriodogramPoint{Period: float64(n) / float64(k), Power: (re*re + im*im) / float64(n)}
	}
	return pts
}

// chirpConvolve overwrites a with the circular convolution of a and b,
// index-reversed and scaled by m = len(a): a[(m-k)%m] = m·(a⊛b)[k]. Both
// slices have the same power-of-two length and b is overwritten too;
// twiddles holds e^{-2πij/m} for j < m/2.
//
//filemig:hotpath
func chirpConvolve(a, b, twiddles []complex128) {
	fftRadix2(a, twiddles)
	fftRadix2(b, twiddles)
	for i := range a {
		a[i] *= b[i]
	}
	fftRadix2(a, twiddles)
}

// fftRadix2 is the in-place forward FFT (kernel e^{-2πijk/m}) of a,
// whose length m must be a power of two, by iterative decimation in
// time; twiddles holds e^{-2πij/m} for j < m/2.
//
//filemig:hotpath
func fftRadix2(a, twiddles []complex128) {
	m := len(a)
	for i, j := 1, 0; i < m; i++ {
		bit := m >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= m; size <<= 1 {
		half, stride := size>>1, m/size
		for lo := 0; lo < m; lo += size {
			for j := 0; j < half; j++ {
				u, v := a[lo+j], a[lo+j+half]*twiddles[j*stride]
				a[lo+j], a[lo+j+half] = u+v, u-v
			}
		}
	}
}

// Detrend subtracts the least-squares line from the series, returning a
// new slice. The NCAR read stream grows steadily over the two years
// (Figure 6); without detrending that ramp dominates the periodogram and
// buries the weekly peak.
func Detrend(series []float64) []float64 {
	n := len(series)
	if n < 2 {
		return append([]float64(nil), series...)
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, v := range series {
		x := float64(i)
		sumX += x
		sumY += v
		sumXY += x * v
		sumXX += x * x
	}
	fn := float64(n)
	denom := fn*sumXX - sumX*sumX
	slope := 0.0
	if denom != 0 {
		slope = (fn*sumXY - sumX*sumY) / denom
	}
	intercept := (sumY - slope*sumX) / fn
	out := make([]float64, n)
	for i, v := range series {
		out[i] = v - (intercept + slope*float64(i))
	}
	return out
}

// DominantPeriods returns up to max periods (in sample units) ranked by
// spectral power, collapsing peaks closer than tol (relative) to a stronger
// peak. The series is detrended first and periods longer than a quarter of
// the series (trend remnants, not cycles) are discarded. For the NCAR
// hourly series this returns 24 and 168 at the top.
func DominantPeriods(series []float64, max int, tol float64) []float64 {
	return rankPeriods(Periodogram(Detrend(series)), float64(len(series))/4, max, tol)
}

// rankPeriods picks up to max periods no longer than cutoff from pts in
// descending power, skipping any within tol (relative) of one already
// picked. Bins of equal power rank shorter period first, so the order is
// a property of the spectrum and not of the sort.
func rankPeriods(pts []PeriodogramPoint, cutoff float64, max int, tol float64) []float64 {
	byPower := make([]PeriodogramPoint, 0, len(pts))
	for _, p := range pts {
		if p.Period <= cutoff {
			byPower = append(byPower, p)
		}
	}
	slices.SortFunc(byPower, func(a, b PeriodogramPoint) int {
		if a.Power != b.Power {
			return byValue(b.Power, a.Power)
		}
		return byValue(a.Period, b.Period)
	})
	var out []float64
	for _, p := range byPower {
		if len(out) >= max {
			break
		}
		dup := false
		for _, q := range out {
			if math.Abs(p.Period-q)/q < tol {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p.Period)
		}
	}
	return out
}
