package workload

import (
	"math"
	"math/rand"
	"time"
)

// Rhythm models the calendar structure of MSS activity. Reads are made by
// humans: they surge at 8 AM when the scientists arrive, tail off slowly
// after 4 PM (people stay late more than they come early), sag on
// weekends, dip at Thanksgiving and Christmas, and grow over the two years
// (Figures 4-6). Writes are made by the machine: batch jobs run around the
// clock every day of the year, with only a small daytime increase, no
// weekend or holiday effect, and no growth (the Cray was already at full
// capacity, §5.2).

// readHourWeights is the relative read intensity per hour of day. The
// shape implements Figure 4: low overnight, a sharp jump at 8 AM, a broad
// working-day plateau and a slow evening decay.
var readHourWeights = [24]float64{
	// 0   1     2     3     4     5     6     7
	0.30, 0.25, 0.22, 0.20, 0.20, 0.22, 0.30, 0.50,
	// 8   9     10    11    12    13    14    15
	1.30, 1.60, 1.70, 1.70, 1.55, 1.60, 1.65, 1.65,
	// 16  17    18    19    20    21    22    23
	1.50, 1.25, 1.00, 0.85, 0.70, 0.60, 0.50, 0.40,
}

// writeHourWeights implements Figure 4's nearly flat write curve, with the
// "small increase in write requests during the day" of §5.2.
var writeHourWeights = [24]float64{
	0.95, 0.95, 0.95, 0.95, 0.95, 0.95, 0.95, 0.97,
	1.02, 1.05, 1.08, 1.08, 1.05, 1.05, 1.08, 1.08,
	1.05, 1.02, 1.00, 0.98, 0.95, 0.95, 0.95, 0.95,
}

// readDayWeights is the relative read intensity per day of week
// (0=Sunday). Figure 5: weekends are quiet; Monday starts lowest among
// weekdays (weekend maintenance and drained batch queues, §5.2).
var readDayWeights = [7]float64{0.45, 0.95, 1.25, 1.30, 1.30, 1.20, 0.55}

// Rhythm answers intensity queries for a configured trace. The calendar
// is tabulated once at construction — the generator asks for a day's read
// weight and the trace-wide maximum once per planned read.
type Rhythm struct {
	start      time.Time
	days       int
	holidays   bool
	readGrowth float64
	holiday    map[int]float64 // day index -> read multiplier
	readDay    []float64       // ReadDayWeight of every trace day
	maxReadDay float64         // the largest readDay entry
	readHours  hourProfile     // hour-of-day read weights, possibly reshaped
	writeHours hourProfile
}

// hourProfile is an hour-of-day weight table beside its sum, the
// normaliser of every hour draw.
type hourProfile struct {
	weights [24]float64
	total   float64
}

func newHourProfile(weights [24]float64) hourProfile {
	p := hourProfile{weights: weights}
	for _, w := range weights {
		p.total += w
	}
	return p
}

// NewShapedRhythm builds the rhythm model for a trace starting at start
// and lasting days days, with a diurnal sharpness exponent applied to the
// read hour-of-day profile: each hourly weight is raised to
// sharpness before sampling (Config.DiurnalSharpness). Sharpness <= 0 or
// exactly 1 keeps the calibrated Figure 4 shape bit-for-bit.
func NewShapedRhythm(start time.Time, days int, holidays bool, readGrowth, sharpness float64) *Rhythm {
	r := &Rhythm{start: start, days: days, holidays: holidays, readGrowth: readGrowth}
	if readGrowth <= 0 {
		r.readGrowth = 1
	}
	readHours := readHourWeights
	if sharpness > 0 && sharpness != 1 {
		for h, w := range readHours {
			readHours[h] = math.Pow(w, sharpness)
		}
	}
	r.readHours = newHourProfile(readHours)
	r.writeHours = newHourProfile(writeHourWeights)
	r.holiday = map[int]float64{}
	if holidays {
		r.markHolidays()
	}
	r.readDay = make([]float64, max(days, 0))
	for d := range r.readDay {
		w := r.readDayWeight(d)
		r.readDay[d] = w
		if w > r.maxReadDay {
			r.maxReadDay = w
		}
	}
	return r
}

// markHolidays suppresses reads around Thanksgiving (the fourth Thursday
// of November) and the Christmas/New Year week for every year the trace
// spans. Figure 6 shows these dips in read rate for 1990 and 1991 — and
// explicitly no write dip ("the Cray doesn't take a Christmas vacation
// while the scientists do").
func (r *Rhythm) markHolidays() {
	end := r.start.AddDate(0, 0, r.days)
	for year := r.start.Year(); year <= end.Year(); year++ {
		// Fourth Thursday of November plus the following Friday.
		nov1 := time.Date(year, time.November, 1, 0, 0, 0, 0, time.UTC)
		offset := (int(time.Thursday) - int(nov1.Weekday()) + 7) % 7
		thanksgiving := nov1.AddDate(0, 0, offset+21)
		r.suppress(thanksgiving, 2, 0.25)
		// Christmas through New Year.
		r.suppress(time.Date(year, time.December, 24, 0, 0, 0, 0, time.UTC), 9, 0.30)
	}
}

func (r *Rhythm) suppress(from time.Time, days int, factor float64) {
	for i := 0; i < days; i++ {
		d := int(from.AddDate(0, 0, i).Sub(r.start).Hours() / 24)
		if d >= 0 && d < r.days {
			r.holiday[d] = factor
		}
	}
}

// weekday reports the weekday of trace day d: whole days from the start
// shift the weekday by d mod 7, with no calendar arithmetic.
func (r *Rhythm) weekday(day int) time.Weekday {
	return time.Weekday(((int(r.start.Weekday())+day)%7 + 7) % 7)
}

// growth reports the linear read-growth multiplier on trace day d,
// normalised to average 1 over the trace.
func (r *Rhythm) growth(day int) float64 {
	if r.days <= 1 {
		return 1
	}
	frac := float64(day) / float64(r.days-1)
	// Linear from g0 to g1 with mean 1: g0 = 2/(1+G), g1 = G*g0.
	g0 := 2 / (1 + r.readGrowth)
	return g0 + (r.readGrowth*g0-g0)*frac
}

// ReadDayWeight reports the relative read intensity of trace day d,
// combining weekday, holiday and growth effects.
func (r *Rhythm) ReadDayWeight(day int) float64 {
	if day >= 0 && day < len(r.readDay) {
		return r.readDay[day]
	}
	return r.readDayWeight(day)
}

// readDayWeight computes what ReadDayWeight tabulates.
func (r *Rhythm) readDayWeight(day int) float64 {
	w := readDayWeights[r.weekday(day)] * r.growth(day)
	if f, ok := r.holiday[day]; ok {
		w *= f
	}
	return w
}

// HolidayFactor reports the read-suppression multiplier of trace day d
// (1 on ordinary days).
func (r *Rhythm) HolidayFactor(day int) float64 {
	if f, ok := r.holiday[day]; ok {
		return f
	}
	return 1
}

// MaxReadDayWeight bounds ReadDayWeight over the trace, for rejection
// sampling.
func (r *Rhythm) MaxReadDayWeight() float64 { return r.maxReadDay }

// SampleReadHour draws an hour of day from the read profile.
func (r *Rhythm) SampleReadHour(rng *rand.Rand) int {
	return r.readHours.sample(rng)
}

// SampleWriteHour draws an hour of day from the write profile.
func (r *Rhythm) SampleWriteHour(rng *rand.Rand) int {
	return r.writeHours.sample(rng)
}

func (p *hourProfile) sample(rng *rand.Rand) int {
	u := rng.Float64() * p.total
	for h, w := range p.weights {
		u -= w
		if u <= 0 {
			return h
		}
	}
	return 23
}
