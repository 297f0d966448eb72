package workload

import (
	"math/rand"
	"testing"
	"time"

	"filemig/internal/trace"
)

func testRhythm() *Rhythm {
	return NewShapedRhythm(trace.Epoch, PaperSpanDays, true, 2.0, 1)
}

func TestReadHourProfileShape(t *testing.T) {
	// Figure 4: reads jump at 8 AM, stay high through the afternoon, and
	// decay slowly in the evening.
	if readHourWeights[8] < 2*readHourWeights[7] {
		t.Error("read intensity should jump sharply at 8 AM")
	}
	if readHourWeights[10] < readHourWeights[3]*4 {
		t.Error("mid-morning should dwarf the small hours")
	}
	// "The fall is slower than the rise": 3 hours after the 16:00 peak-end
	// should still be busier than 3 hours before the 8:00 jump.
	if readHourWeights[19] <= readHourWeights[5] {
		t.Error("evening tail should exceed early morning (scientists stay late)")
	}
}

func TestWriteHourProfileNearlyFlat(t *testing.T) {
	min, max := writeHourWeights[0], writeHourWeights[0]
	for _, w := range writeHourWeights {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if max/min > 1.25 {
		t.Errorf("write profile varies %vx across the day, want under 1.25x (§5.2)", max/min)
	}
}

func TestDayWeights(t *testing.T) {
	// Figure 5: weekends low for reads.
	if readDayWeights[0] > 0.7 || readDayWeights[6] > 0.7 {
		t.Error("weekend read weight should be well below weekday")
	}
	// Monday is the lowest weekday.
	for d := 2; d <= 5; d++ {
		if readDayWeights[1] >= readDayWeights[d] {
			t.Errorf("Monday (%v) should be the slowest weekday (day %d = %v)",
				readDayWeights[1], d, readDayWeights[d])
		}
	}
}

func TestHolidayCalendar(t *testing.T) {
	r := testRhythm()
	// Thanksgiving 1990 was November 22; trace day index from Oct 1.
	tg1990 := int(time.Date(1990, 11, 22, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	if !r.IsHoliday(tg1990) {
		t.Errorf("day %d (Thanksgiving 1990) should be a holiday", tg1990)
	}
	// Thanksgiving 1991 was November 28.
	tg1991 := int(time.Date(1991, 11, 28, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	if !r.IsHoliday(tg1991) {
		t.Errorf("day %d (Thanksgiving 1991) should be a holiday", tg1991)
	}
	// Christmas both years.
	for _, y := range []int{1990, 1991} {
		d := int(time.Date(y, 12, 25, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
		if !r.IsHoliday(d) {
			t.Errorf("Christmas %d (day %d) should be a holiday", y, d)
		}
	}
	// A plain mid-July day is not.
	july := int(time.Date(1991, 7, 15, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	if r.IsHoliday(july) {
		t.Error("mid-July should not be a holiday")
	}
	// Holidays off.
	r2 := NewShapedRhythm(trace.Epoch, PaperSpanDays, false, 2.0, 1)
	if r2.IsHoliday(tg1990) {
		t.Error("holidays disabled but still marked")
	}
}

func TestHolidaySuppressesReadsNotWrites(t *testing.T) {
	r := testRhythm()
	xmas := int(time.Date(1990, 12, 25, 0, 0, 0, 0, time.UTC).Sub(trace.Epoch).Hours() / 24)
	normal := xmas - 21 // same weekday three weeks earlier
	if r.ReadDayWeight(xmas) >= 0.5*r.ReadDayWeight(normal) {
		t.Errorf("Christmas read weight %v vs normal %v — want a deep dip",
			r.ReadDayWeight(xmas), r.ReadDayWeight(normal))
	}
}

func TestGrowthAveragesToOne(t *testing.T) {
	r := testRhythm()
	sum := 0.0
	for d := 0; d < r.days; d++ {
		sum += r.growth(d)
	}
	mean := sum / float64(r.days)
	if mean < 0.98 || mean > 1.02 {
		t.Errorf("growth mean = %v, want ~1", mean)
	}
	// End-to-start ratio equals the configured growth.
	ratio := r.growth(r.days-1) / r.growth(0)
	if ratio < 1.95 || ratio > 2.05 {
		t.Errorf("growth ratio = %v, want ~2", ratio)
	}
}

func TestGrowthDisabled(t *testing.T) {
	r := NewShapedRhythm(trace.Epoch, 100, false, 0, 1) // non-positive => flat
	if r.growth(0) != 1 || r.growth(99) != 1 {
		t.Error("growth should be flat when disabled")
	}
}

func TestSampleHoursFollowProfile(t *testing.T) {
	r := testRhythm()
	rng := rand.New(rand.NewSource(5))
	counts := [24]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[r.SampleReadHour(rng)]++
	}
	// 10 AM should see roughly readHourWeights[10]/readHourWeights[3]
	// times the 3 AM traffic.
	ratio := float64(counts[10]) / float64(counts[3])
	want := readHourWeights[10] / readHourWeights[3]
	if ratio < want*0.7 || ratio > want*1.3 {
		t.Errorf("hour ratio 10/3 = %v, want ~%v", ratio, want)
	}
	wcounts := [24]int{}
	for i := 0; i < n; i++ {
		wcounts[r.SampleWriteHour(rng)]++
	}
	wratio := float64(wcounts[10]) / float64(wcounts[3])
	if wratio > 1.35 {
		t.Errorf("write hours should be nearly flat, 10/3 ratio = %v", wratio)
	}
}

func TestMaxReadDayWeightBounds(t *testing.T) {
	r := testRhythm()
	max := r.MaxReadDayWeight()
	for d := 0; d < r.days; d++ {
		if r.ReadDayWeight(d) > max {
			t.Fatalf("day %d weight %v exceeds reported max %v", d, r.ReadDayWeight(d), max)
		}
	}
}

// calendarReadDayWeight recomputes a day's read weight from the calendar,
// the way ReadDayWeight worked before the table: the date by AddDate, its
// weekday from the time package, the holiday from the date itself.
func calendarReadDayWeight(r *Rhythm, day int) float64 {
	date := r.start.AddDate(0, 0, day)
	w := readDayWeights[date.Weekday()] * r.growth(day)
	if !r.holidays {
		return w
	}
	switch m, d := date.Month(), date.Day(); {
	case m == time.November && date.Weekday() == time.Thursday && d >= 22 && d <= 28,
		m == time.November && date.Weekday() == time.Friday && d >= 23 && d <= 29:
		w *= 0.25 // Thanksgiving and the Friday after
	case m == time.December && d >= 24, m == time.January && d == 1:
		w *= 0.30 // Christmas through New Year
	}
	return w
}

// TestReadDayTableMatchesCalendar: every tabulated weight, and the
// weekday arithmetic under it, equals the value recomputed from the
// calendar, bit for bit, and the stored maximum is their maximum.
func TestReadDayTableMatchesCalendar(t *testing.T) {
	starts := []time.Time{
		trace.Epoch, // October 1990
		time.Date(1991, time.June, 12, 0, 0, 0, 0, time.UTC),     // non-leap year, midweek
		time.Date(1992, time.February, 27, 0, 0, 0, 0, time.UTC), // two days before a leap day
	}
	for _, start := range starts {
		for _, holidays := range []bool{true, false} {
			for _, days := range []int{7, 90, 731, 1500} {
				r := NewShapedRhythm(start, days, holidays, 2.0, 1)
				max := 0.0
				for d := 0; d < days; d++ {
					if got, want := r.weekday(d), start.AddDate(0, 0, d).Weekday(); got != want {
						t.Fatalf("%s +%d: weekday %v, calendar says %v", start.Format("2006-01-02"), d, got, want)
					}
					want := calendarReadDayWeight(r, d)
					if got := r.ReadDayWeight(d); got != want {
						t.Fatalf("%s holidays=%v days=%d: day %d weight %v, calendar gives %v",
							start.Format("2006-01-02"), holidays, days, d, got, want)
					}
					if want > max {
						max = want
					}
				}
				if got := r.MaxReadDayWeight(); got != max {
					t.Errorf("%s holidays=%v days=%d: MaxReadDayWeight %v, max over days %v",
						start.Format("2006-01-02"), holidays, days, got, max)
				}
			}
		}
	}
}
