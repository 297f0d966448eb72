package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// directPeriodogram is the O(n²) discrete Fourier sum Periodogram used to
// be: one cosine and one sine per (frequency, sample) pair, then a sort.
// It stays here as the reference the fast transform is held to.
func directPeriodogram(series []float64) []PeriodogramPoint {
	n := len(series)
	if n < 4 {
		return nil
	}
	mean := 0.0
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)
	pts := make([]PeriodogramPoint, 0, n/2)
	for k := 1; k <= n/2; k++ {
		var re, im float64
		w := 2 * math.Pi * float64(k) / float64(n)
		for t, v := range series {
			c := v - mean
			re += c * math.Cos(w*float64(t))
			im -= c * math.Sin(w*float64(t))
		}
		power := (re*re + im*im) / float64(n)
		pts = append(pts, PeriodogramPoint{Period: float64(n) / float64(k), Power: power})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Period < pts[j].Period })
	return pts
}

// checkAgainstDirect holds Periodogram to the reference: the same points
// in the same order, every Period bit for bit, every Power within 1e-9 of
// the spectrum's largest.
func checkAgainstDirect(t *testing.T, series []float64) {
	t.Helper()
	got, want := Periodogram(series), directPeriodogram(series)
	if len(got) != len(want) {
		t.Fatalf("n=%d: %d points, direct DFT gives %d", len(series), len(got), len(want))
	}
	maxPower := 0.0
	for _, p := range want {
		maxPower = math.Max(maxPower, p.Power)
	}
	for i := range want {
		if math.Float64bits(got[i].Period) != math.Float64bits(want[i].Period) {
			t.Fatalf("n=%d point %d: period %v, direct DFT gives %v", len(series), i, got[i].Period, want[i].Period)
		}
		if d := math.Abs(got[i].Power - want[i].Power); !(d <= 1e-9*maxPower) {
			t.Fatalf("n=%d period %v: power %v, direct DFT gives %v (|Δ|/max = %g)",
				len(series), want[i].Period, got[i].Power, want[i].Power, d/maxPower)
		}
	}
}

// TestPeriodogramMatchesDirect covers powers of two, small primes, a
// large prime, the two-year hourly length (2³·3·17·43) and its odd
// neighbour — every shape the chirp-z padding has to absorb.
func TestPeriodogramMatchesDirect(t *testing.T) {
	for _, n := range []int{4, 5, 7, 8, 240, 1009, 17544, 17545} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			if n > 10000 {
				if testing.Short() {
					t.Skip("the direct DFT takes seconds at this length")
				}
				t.Parallel()
			}
			s := synthDiurnal(n/168+1, 0.5, int64(n))[:n]
			for i := range s {
				s[i] += float64(i) / float64(n) // a ramp, so the mean matters
			}
			checkAgainstDirect(t, s)
		})
	}
}

func FuzzPeriodogramMatchesDirect(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4})
	f.Add([]byte{255, 255, 0, 0, 255, 255, 0, 0, 255, 255})
	f.Add(make([]byte, 26))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*128 {
			data = data[:2*128]
		}
		series := make([]float64, len(data)/2)
		for i := range series {
			series[i] = float64(int16(binary.BigEndian.Uint16(data[2*i:]))) / 16
		}
		checkAgainstDirect(t, series)
	})
}

// TestPeriodogramParseval: the centred series has no power at frequency
// zero, so the powers at k = 1..n-1 sum to its energy; bins k and n-k are
// mirror images and the periodogram keeps the lower half.
func TestPeriodogramParseval(t *testing.T) {
	for _, n := range []int{9, 64, 1009, 17544} {
		s := synthDiurnal(n/168+1, 1, int64(n))[:n]
		mean, energy := 0.0, 0.0
		for _, v := range s {
			mean += v
		}
		mean /= float64(n)
		for _, v := range s {
			energy += (v - mean) * (v - mean)
		}
		sum := 0.0
		for _, p := range Periodogram(s) {
			if p.Period == 2 { // k = n/2 is its own mirror
				sum += p.Power
			} else {
				sum += 2 * p.Power
			}
		}
		if math.Abs(sum-energy) > 1e-9*energy {
			t.Errorf("n=%d: spectrum sums to %v, series energy is %v", n, sum, energy)
		}
	}
}

// TestRankPeriodsTieBreak pins the ranking on hand-built spectra: bins of
// equal power come out shorter period first whatever order they went in,
// so the list cannot depend on the sort or on last-bit differences in how
// the powers were summed.
func TestRankPeriodsTieBreak(t *testing.T) {
	pts := []PeriodogramPoint{
		{Period: 2, Power: 1}, {Period: 8, Power: 5}, {Period: 12, Power: 5},
		{Period: 24, Power: 9}, {Period: 25, Power: 9}, {Period: 168, Power: 5},
		{Period: 500, Power: 100}, {Period: 40, Power: 5},
	}
	// 500 is past the cutoff; 24 beats its equal 25, which then collapses
	// into it; the four-way tie at power 5 ranks 8, 12, 40, 168.
	want := []float64{24, 8, 12, 40, 168, 2}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		if got := rankPeriods(pts, 400, 10, 0.1); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ranked %v, want %v", trial, got, want)
		}
	}
	if got := rankPeriods(pts, 400, 2, 0.1); !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("max 2: ranked %v, want %v", got, want[:2])
	}
	if got := rankPeriods(nil, 400, 2, 0.1); got != nil {
		t.Errorf("empty spectrum ranked %v, want nil", got)
	}
}

// synthDiurnal builds an hourly series with daily and weekly structure,
// mimicking the shape of the NCAR read stream.
func synthDiurnal(weeks int, noise float64, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	n := weeks * 7 * 24
	s := make([]float64, n)
	for i := range s {
		hour := i % 24
		day := (i / 24) % 7
		v := 2.0
		if hour >= 8 && hour <= 17 {
			v += 4.0
		}
		if day == 0 || day == 6 {
			v *= 0.5
		}
		s[i] = v + noise*r.NormFloat64()
	}
	return s
}

func TestAutocorrelationLagZero(t *testing.T) {
	s := synthDiurnal(4, 0.1, 1)
	ac := Autocorrelation(s, 200)
	if math.Abs(ac[0]-1) > 1e-12 {
		t.Errorf("ac[0] = %v, want 1", ac[0])
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = 5
	}
	ac := Autocorrelation(s, 10)
	for lag, v := range ac {
		if v != 0 {
			t.Errorf("constant series ac[%d] = %v, want 0", lag, v)
		}
	}
}

func TestAutocorrelationDailyPeak(t *testing.T) {
	s := synthDiurnal(8, 0.3, 2)
	ac := Autocorrelation(s, 24*8)
	if ac[24] < 0.5 {
		t.Errorf("ac at lag 24 = %v, want strong positive", ac[24])
	}
	if ac[168] < ac[24] {
		t.Errorf("weekly lag (%v) should be at least daily lag (%v) for weekly-structured series", ac[168], ac[24])
	}
	if ac[12] > ac[24] {
		t.Errorf("half-day lag %v should be below daily lag %v", ac[12], ac[24])
	}
}

func TestAutocorrelationClampsLag(t *testing.T) {
	s := []float64{1, 2, 3}
	ac := Autocorrelation(s, 100)
	if len(ac) != 3 {
		t.Errorf("len(ac) = %d, want 3", len(ac))
	}
	if Autocorrelation(nil, 5) != nil {
		t.Error("nil series should give nil")
	}
}

func TestPeriodogramFindsDayAndWeek(t *testing.T) {
	s := synthDiurnal(10, 0.2, 3)
	periods := DominantPeriods(s, 3, 0.1)
	foundDay, foundWeek := false, false
	for _, p := range periods {
		if math.Abs(p-24) < 1.0 {
			foundDay = true
		}
		if math.Abs(p-168) < 8.0 {
			foundWeek = true
		}
	}
	if !foundDay || !foundWeek {
		t.Errorf("dominant periods = %v, want to include ~24 and ~168", periods)
	}
}

func TestPeriodogramShortSeries(t *testing.T) {
	if Periodogram([]float64{1, 2}) != nil {
		t.Error("short series should give nil periodogram")
	}
}

func TestPeriodogramPureSine(t *testing.T) {
	n := 240
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	pts := Periodogram(s)
	var best PeriodogramPoint
	for _, p := range pts {
		if p.Power > best.Power {
			best = p
		}
	}
	if math.Abs(best.Period-24) > 0.5 {
		t.Errorf("peak period = %v, want 24", best.Period)
	}
}

func TestDominantPeriodsDeduplicates(t *testing.T) {
	s := synthDiurnal(6, 0.2, 5)
	periods := DominantPeriods(s, 2, 0.2)
	if len(periods) != 2 {
		t.Fatalf("got %d periods, want 2", len(periods))
	}
	if math.Abs(periods[0]-periods[1])/periods[1] < 0.2 {
		t.Errorf("periods %v not deduplicated", periods)
	}
}
