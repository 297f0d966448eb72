package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
	_ "time/tzdata" // America/Denver without relying on the host's zoneinfo

	"filemig/internal/device"
	"filemig/internal/trace"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// wantCalendar is calendarAt's reference: the same coordinates through
// time.Time's Sub, Hour and Weekday, start read on its own wall clock.
func wantCalendar(start, origin time.Time) calendar {
	since := start.Sub(origin)
	day := int(since / (24 * time.Hour))
	return calendar{
		day:     day,
		week:    day / 7,
		hourIdx: int(since / time.Hour),
		hour:    start.Hour(),
		weekday: int(start.Weekday()),
	}
}

// checkCalendar compares calendarAt with the time.Time reference for
// one (start, origin) pair, start carrying the location to read it in.
func checkCalendar(t *testing.T, start, origin time.Time) {
	t.Helper()
	got := calendarAt(start.UnixNano(), origin.UnixNano(), zoneOffset(start))
	if want := wantCalendar(start, origin); got != want {
		t.Fatalf("calendarAt(%v, origin %v) = %+v, want %+v", start, origin, got, want)
	}
}

func TestCalendarAtMatchesTime(t *testing.T) {
	denver, err := time.LoadLocation("America/Denver")
	if err != nil {
		t.Fatal(err)
	}
	locs := []*time.Location{
		time.UTC, denver,
		time.FixedZone("east", 5*3600+30*60),
		time.FixedZone("west", -12*3600),
		time.FixedZone("far", 14*3600),
	}
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1993))
		for i := 0; i < 20000; i++ {
			start := time.Unix(0, rng.Int63()-rng.Int63()) // pre-1970 and after
			origin := time.Unix(0, rng.Int63()-rng.Int63())
			if i%2 == 0 {
				// Near the start, where the series actually live.
				origin = start.Add(-time.Duration(rng.Int63n(int64(800 * 24 * time.Hour))))
			}
			checkCalendar(t, start.In(locs[i%len(locs)]), origin)
		}
	})
	t.Run("saturation", func(t *testing.T) {
		for _, loc := range locs {
			checkCalendar(t, hi.In(loc), lo)
			checkCalendar(t, lo.In(loc), hi)
			checkCalendar(t, hi.In(loc), hi)
			checkCalendar(t, lo.In(loc), lo)
			checkCalendar(t, hi.In(loc), trace.Epoch)
			checkCalendar(t, lo.In(loc), trace.Epoch)
		}
	})
	t.Run("boundaries", func(t *testing.T) {
		// Every hour of a fortnight, a nanosecond either side, on each
		// wall clock: all 24 hour and 7 weekday boundaries, before and
		// after 1970, and across Denver's DST changes.
		bases := []time.Time{
			time.Date(1969, 12, 25, 0, 0, 0, 0, time.UTC),
			time.Date(1900, 3, 1, 0, 0, 0, 0, time.UTC),
			trace.Epoch,
			time.Date(1991, 3, 31, 0, 0, 0, 0, time.UTC),
			time.Date(1992, 10, 20, 0, 0, 0, 0, time.UTC),
		}
		for _, loc := range locs {
			for _, base := range bases {
				origin := base.AddDate(0, 0, -3)
				midnight := time.Date(base.Year(), base.Month(), base.Day(), 0, 0, 0, 0, loc)
				for h := 0; h < 14*24; h++ {
					b := midnight.Add(time.Duration(h) * time.Hour)
					for _, d := range []time.Duration{-1, 0, 1} {
						checkCalendar(t, b.Add(d), origin)
						checkCalendar(t, b.Add(d), b) // negative and zero offsets from the origin
					}
				}
			}
		}
	})
}

// TestAddReadsRecordWallClock feeds the Add path a workload emitted in
// a non-UTC location (the generator emits In(cfg.Start.Location())):
// hour of day and weekday must be the record's own, as time.Time reads
// them, and the week and day series must count from the origin.
func TestAddReadsRecordWallClock(t *testing.T) {
	denver, err := time.LoadLocation("America/Denver")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(0.002, 5)
	cfg.Start = time.Date(1990, 10, 1, 0, 0, 0, 0, denver)
	cfg.Days = 120 // spans a DST change
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Options{Start: cfg.Start})
	var hourBytes [24][2]int64
	var dayBytes [7][2]int64
	weekBytes := map[int][2]int64{}
	days := 0
	for i := range res.Records {
		r := &res.Records[i]
		if r.Start.Location() != denver {
			t.Fatalf("record %d emitted in %v, want %v", i, r.Start.Location(), denver)
		}
		a.Add(r)
		if !r.OK() {
			continue
		}
		w := wantCalendar(r.Start, cfg.Start)
		oi := opIndex(r.Op)
		hourBytes[w.hour][oi] += int64(r.Size)
		dayBytes[w.weekday][oi] += int64(r.Size)
		wb := weekBytes[w.week]
		wb[oi] += int64(r.Size)
		weekBytes[w.week] = wb
		days = max(days, w.day+1)
	}
	rep := a.Report()
	if a.hourBytes != hourBytes || a.dayBytes != dayBytes || rep.Days != days {
		t.Fatalf("calendar series differ from time.Time's on the records' own wall clock:\nhours %v\nwant  %v\ndays %v want %v (%d, %d)",
			a.hourBytes, hourBytes, a.dayBytes, dayBytes, rep.Days, days)
	}
	if len(rep.Figure6.Weeks) != len(weekBytes) {
		t.Fatalf("Figure 6 has %d weeks, want %d", len(rep.Figure6.Weeks), len(weekBytes))
	}
	for _, wp := range rep.Figure6.Weeks {
		b := weekBytes[wp.Week]
		if wp.ReadGBh != gb(b[0])/(7*24) || wp.WriteGBh != gb(b[1])/(7*24) {
			t.Fatalf("Figure 6 week %d = %+v, want bytes %v", wp.Week, wp, b)
		}
	}
}

// TestNegativeWeekAddMatchesFold pins the calendar origin after the
// first record, so the first weeks, days and hours are negative: the
// report through Add must equal the report through FoldPartials, over
// one segment and over interleaved ones.
func TestNegativeWeekAddMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	first := trace.Epoch.Add(5 * time.Hour)
	var recs []trace.Record
	at := first
	for i := 0; i < 3000; i++ {
		at = at.Add(time.Duration(rng.Int63n(int64(40 * time.Minute))))
		op := trace.Read
		if rng.Intn(3) == 0 {
			op = trace.Write
		}
		recs = append(recs, trace.Record{
			Start: at, Op: op, Device: device.ClassDisk, Startup: time.Second,
			Size:    units.Bytes(1 + rng.Int63n(int64(units.MB))),
			MSSPath: "/mss/d" + string(rune('a'+rng.Intn(5))) + "/f" + string(rune('a'+rng.Intn(26))),
			UserID:  1, LocalPath: "/l",
		})
	}
	opts := Options{Start: first.Add(23*24*time.Hour + 7*time.Hour)}
	a := New(opts)
	a.AddAll(recs)
	want := RenderReport(a.Report())
	if a.Report().Figure6.Weeks[0].Week >= 0 {
		t.Fatal("fixture has no negative week")
	}

	whole := NewAccumulator(opts)
	if err := whole.FoldPartials([]*Partial{AccumulatePartial(opts, recs)}); err != nil {
		t.Fatal(err)
	}
	if got := RenderReport(whole.Report()); got != want {
		t.Errorf("one-segment fold differs from Add:\n%s", firstDiff(want, got))
	}

	// Two segments over one table whose ranges interleave.
	paths := trace.NewInterner()
	segs := []*Partial{NewSegment(opts, paths), NewSegment(opts, paths)}
	for i := range recs {
		r := &recs[i]
		segs[rng.Intn(2)].Observe(r, paths.Intern(r.MSSPath))
	}
	inter := NewAccumulator(opts)
	if err := inter.FoldPartials(segs); err != nil {
		t.Fatal(err)
	}
	if got := RenderReport(inter.Report()); got != want {
		t.Errorf("interleaved fold differs from Add:\n%s", firstDiff(want, got))
	}
}
