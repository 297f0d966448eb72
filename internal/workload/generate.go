package workload

import (
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"filemig/internal/device"
	"filemig/internal/namespace"
	"filemig/internal/stats"
	"filemig/internal/trace"
)

// Residence/routing model constants (§3.1, §5.1, Table 3). Small files
// live on the 3090 staging disks until they go cold; big files go straight
// to tape; cold silo cartridges are eventually shelved and need an
// operator.
const (
	// migrationWindow is how long a ≤30 MB file stays on MSS disk without
	// a reference before the MSS's internal migration moves it to tape.
	migrationWindow = 45 * 24 * time.Hour
	// shelfAge is the age past which a tape-resident file's cartridge has
	// been moved from the silo to shelf storage.
	shelfAge = 270 * 24 * time.Hour
	// manualWriteFraction of tape writes go to operator-mounted drives
	// (exports and special requests); Table 3 shows only 2% of manual
	// activity is writes.
	manualWriteFraction = 0.05
)

// Result is a generated trace plus the artefacts the analyzers need.
type Result struct {
	Config     Config
	Records    []trace.Record // time-sorted; latency fields zero (simulator fills them)
	Population *Population
	Tree       *namespace.Tree
	Rhythm     *Rhythm
}

// Generate synthesizes a trace. It is deterministic for a given Config.
// It is the materializing form of GenerateStream: the same records, as a
// slice.
func Generate(cfg Config) (*Result, error) {
	sr, err := GenerateStream(cfg)
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, 0, sr.Planned)
	for {
		r, err := sr.Stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return &Result{Config: sr.Config, Records: recs, Population: sr.Population,
		Tree: sr.Tree, Rhythm: sr.Rhythm}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type generator struct {
	cfg     Config
	rhythm  *Rhythm
	tree    *namespace.Tree
	pop     *Population
	scratch planScratch
}

// planFile appends one file's planned accesses to the flat plan: its
// logical plan, rhythm-mapped timestamps, device routing with residence
// tracking, and within-eight-hour duplicate requests. Each entry's seq is
// its index in the plan at append time — the global emission order, the
// tie-break that makes the one sort reproduce a stable sort of the eager
// emission order. The paths, size and user are per-file (row) and
// materialize only when the stream assembles a record, which is what
// lets GenerateStream hold the plan instead of the trace.
func (g *generator) planFile(f *File, rng *rand.Rand, plan []planned, row int32) []planned {
	birth := g.sampleBirth(f, rng)
	refs := g.scratch.buildPlan(f, birth, g.cfg.end(), rng)
	if len(refs) == 0 {
		return plan
	}

	// Residence state. Pre-existing files start cold on shelf tape; files
	// created in-trace materialise with their first write.
	onDisk := false
	lastTouch := birth.Add(-2 * shelfAge) // pre-existing: long cold
	var created time.Time
	if f.PreExists {
		created = birth.Add(-2 * shelfAge)
	}

	for refIdx, p := range refs {
		at := g.mapToRhythm(p.at, p.op, refIdx == 0, rng)
		if !at.Before(g.cfg.end()) {
			continue
		}
		var dev device.Class
		if p.op == trace.Write {
			if created.IsZero() {
				created = at
			}
			dev = g.routeWrite(f, rng)
			onDisk = dev == device.ClassDisk
		} else {
			dev = g.routeRead(f, at, onDisk, lastTouch, created, rng)
			// An explicit read recalls small files to the staging disks.
			if int64(f.Size) <= int64(DiskThreshold) {
				onDisk = true
			}
		}
		lastTouch = at
		entry := planned{row: row, op: uint8(p.op), dev: uint8(dev)}
		plan = appendPlanned(plan, entry, at)
		// Duplicates: batch scripts re-request the same file within the
		// eight-hour window (§6), on the same device.
		plan = g.planDuplicates(at, entry, rng, plan)
	}
	return plan
}

// appendPlanned appends one entry at the given instant, stamped with the
// next emission sequence number.
func appendPlanned(plan []planned, entry planned, at time.Time) []planned {
	entry.at, entry.seq = at.UnixNano(), int32(len(plan))
	return append(plan, entry)
}

// sampleBirth places the file's first logical access. Created files are
// born uniformly across the trace (write intensity is flat); pre-existing
// files surface with a read, so their first access follows read intensity.
func (g *generator) sampleBirth(f *File, rng *rand.Rand) time.Time {
	day := rng.Intn(g.cfg.Days)
	if f.PreExists {
		day = g.sampleReadDay(rng)
	}
	secs := rng.Int63n(24 * 3600)
	return g.cfg.Start.AddDate(0, 0, day).Add(time.Duration(secs) * time.Second)
}

// sampleReadDay draws a trace day proportional to read intensity
// (weekday, holiday, growth) by rejection.
func (g *generator) sampleReadDay(rng *rand.Rand) int {
	max := g.rhythm.MaxReadDayWeight()
	for {
		d := rng.Intn(g.cfg.Days)
		if rng.Float64()*max <= g.rhythm.ReadDayWeight(d) {
			return d
		}
	}
}

// mapToRhythm rewrites an access's nominal time to honour the calendar:
// reads are pushed onto acceptable days (weekday/holiday/growth weighting)
// and given a working-hours hour-of-day; writes keep their day and get a
// flat hour. A file's first access uses full-strength day rejection (it
// sets the weekly shape); follow-up reads use a softened acceptance so
// they stay near their nominal day and Figure 9's short intervals
// survive. Seconds are drawn uniformly and later rewritten by burst
// packing.
func (g *generator) mapToRhythm(at time.Time, op trace.Op, first bool, rng *rand.Rand) time.Time {
	day := int(at.Sub(g.cfg.Start) / (24 * time.Hour))
	if day < 0 {
		day = 0
	}
	if day >= g.cfg.Days {
		return g.cfg.end() // dropped by caller
	}
	var hour int
	if op == trace.Read {
		max := g.rhythm.MaxReadDayWeight()
		for tries := 0; tries < 14; tries++ {
			accept := g.rhythm.ReadDayWeight(day) / max
			if !first {
				// Soften the weekday/growth filter for follow-up reads so
				// they stay near their nominal day and Figure 9's short
				// intervals survive the calendar remap — but keep holiday
				// suppression at full strength: nobody reads model output
				// on Christmas Day no matter when it was written.
				hol := g.rhythm.HolidayFactor(day)
				base := accept / hol
				accept = hol * math.Pow(base, 0.4)
			}
			if rng.Float64() <= accept {
				break
			}
			day++
			if day >= g.cfg.Days {
				return g.cfg.end()
			}
		}
		hour = g.rhythm.SampleReadHour(rng)
	} else {
		hour = g.rhythm.SampleWriteHour(rng)
	}
	sec := rng.Int63n(3600)
	return g.cfg.Start.AddDate(0, 0, day).
		Add(time.Duration(hour) * time.Hour).
		Add(time.Duration(sec) * time.Second)
}

// routeWrite picks the destination device per the MSS placement policy.
func (g *generator) routeWrite(f *File, rng *rand.Rand) device.Class {
	if int64(f.Size) <= int64(DiskThreshold) {
		return device.ClassDisk
	}
	if rng.Float64() < manualWriteFraction {
		return device.ClassManualTape
	}
	return device.ClassSiloTape
}

// routeRead picks the source device from the file's residence state.
func (g *generator) routeRead(f *File, at time.Time, onDisk bool, lastTouch, created time.Time, rng *rand.Rand) device.Class {
	small := int64(f.Size) <= int64(DiskThreshold)
	if small && onDisk && at.Sub(lastTouch) <= migrationWindow {
		return device.ClassDisk
	}
	// The file is on tape: silo if its cartridge is still young, shelf
	// (operator) once it has aged out.
	age := at.Sub(created)
	if created.IsZero() {
		age = 2 * shelfAge
	}
	if age > shelfAge {
		return device.ClassManualTape
	}
	return device.ClassSiloTape
}

// planDuplicates appends the §6 repeat requests: Poisson-ish count with
// the configured mean, offsets lognormal around 40 minutes, capped inside
// the dedup window. Duplicates repeat the same operation on the same
// device.
func (g *generator) planDuplicates(at time.Time, entry planned, rng *rand.Rand, plan []planned) []planned {
	if g.cfg.DuplicateMean <= 0 {
		return plan
	}
	p := g.cfg.DuplicateMean / (1 + g.cfg.DuplicateMean)
	n := int(stats.Geometric{P: 1 - p}.Sample(rng))
	for i := 0; i < n; i++ {
		off := time.Duration(40*lognorm(1.0, rng)) * time.Minute
		if off >= DedupWindow {
			off = DedupWindow - time.Minute
		}
		dupAt := at.Add(off)
		if dupAt.Before(g.cfg.end()) {
			plan = appendPlanned(plan, entry, dupAt)
		}
	}
	return plan
}

// planErrors appends the error requests for files that never existed
// (§5.1: 4.76% of references, dominated by nonexistence errors), one
// row each. They carry a size of zero, land on the disk path the lookup
// would have taken, and fail. The error count keeps the configured
// fraction of the total, given the good accesses already planned.
func (g *generator) planErrors(rng *rand.Rand, ps *planStream) {
	if g.cfg.ErrorFraction <= 0 {
		return
	}
	n := int(float64(len(ps.plan)) * g.cfg.ErrorFraction / (1 - g.cfg.ErrorFraction))
	ps.plan, ps.rows = reserve(ps.plan, n), reserve(ps.rows, n)
	var paths strings.Builder // the rows' paths, as in planTrace
	paths.Grow(n * (len("/mss/missing/f/usr/tmp/u/missing") + digits(1<<30) + digits(g.cfg.Users)))
	var buf [48]byte
	for i := 0; i < n; i++ {
		day := g.sampleReadDay(rng)
		hour := g.rhythm.SampleReadHour(rng)
		at := g.cfg.Start.AddDate(0, 0, day).
			Add(time.Duration(hour) * time.Hour).
			Add(time.Duration(rng.Int63n(3600)) * time.Second)
		uid := uint32(1 + rng.Intn(g.cfg.Users))
		entry := planned{
			row: int32(len(ps.rows)),
			op:  uint8(trace.Read),
			dev: uint8(device.ClassDisk),
			err: uint8(trace.ErrNoFile),
		}
		ps.plan = appendPlanned(ps.plan, entry, at)
		mss := arenaPath(&paths, strconv.AppendInt(append(buf[:0], "/mss/missing/f"...), int64(rng.Intn(1<<30)), 10))
		local := strconv.AppendUint(append(buf[:0], "/usr/tmp/u"...), uint64(uid), 10)
		ps.rows = append(ps.rows, planRow{
			mss:   mss,
			local: arenaPath(&paths, append(local, "/missing"...)),
			uid:   uid,
		})
	}
}

// arenaPath appends p to arena and returns it as a slice of the arena's
// string. A strings.Builder only appends, so a slice taken before it
// grows stays valid, and a plan's paths cost a few allocations rather
// than one each.
func arenaPath(arena *strings.Builder, p []byte) string {
	n := arena.Len()
	arena.Write(p)
	return arena.String()[n:]
}

// digits is the decimal length of n >= 0.
func digits(n int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(n), 10))
}

// reserve returns s with room for n more elements: s itself when it has
// the room, else a copy in an array of exactly len(s)+n.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Burst-packing parameters (Figure 7): sessions of about a dozen
// requests with seconds-scale intra-burst gaps.
const (
	meanBurstLen  = 12.0
	smallGapMean  = 2.5 // seconds
	smallGapFloor = 0.5
)

// packHour packs one hour's records into sessions of about meanBurst
// requests, rewriting their starts in order within the hour. offsets is
// scratch for the packed second offsets; packHour returns it, grown to
// the hour's length, for the next hour to reuse.
func packHour(recs []trace.Record, offsets []float64, hour time.Time, rng *rand.Rand, meanBurst, gapMean, gapFloor float64) []float64 {
	n := len(recs)
	// Expected seconds consumed by small gaps; the rest spreads across
	// burst boundaries.
	bursts := float64(n)/meanBurst + 1
	largeMean := (3600 - float64(n)*gapMean) / bursts
	if largeMean < 5 {
		largeMean = 5
	}
	offsets = slices.Grow(offsets[:0], n)[:n]
	t := rng.Float64() * largeMean / 2
	remaining := 0 // remaining requests in current burst
	for k := 0; k < n; k++ {
		if remaining == 0 {
			if k > 0 {
				t += rng.ExpFloat64() * largeMean
			}
			remaining = 1 + int(stats.Geometric{P: 1 / meanBurst}.Sample(rng))
		} else {
			t += gapFloor + rng.ExpFloat64()*gapMean
		}
		remaining--
		offsets[k] = t
	}
	// Keep everything inside the hour: rescale only if we overflowed.
	if last := offsets[n-1]; last >= 3599 {
		scale := 3599 / last
		for k := range offsets {
			offsets[k] *= scale
		}
	}
	for k := range recs {
		recs[k].Start = hour.Add(time.Duration(offsets[k] * float64(time.Second)))
	}
	return offsets
}
