// Package core is the paper's primary contribution rebuilt as a library:
// the two-part analysis of MSS trace data. Part one characterises the
// whole system — request mix and latency (Table 3, Figure 3), daily,
// weekly, and two-year usage rhythm (Figures 4-6), inter-request intervals
// (Figure 7) and their periodicity (§5.2). Part two characterises
// individual files — reference counts under the eight-hour dedup rule
// (Figure 8), per-file interreference intervals (Figure 9), dynamic and
// static size distributions (Figures 10-11), directory sizes (Figure 12),
// and the file-store summary (Table 4) — and §6's count of requests a
// Cray-side request cache would coalesce. Everything is computed in one
// pass over a trace — record by record through Analysis.Add (AnalyzeStream
// is that loop over a trace.Stream), or, for a b2 stream, block group by
// block group through AccumulateB2Blocks, which fans the file's index
// over a worker pool and merges byte-identical results.
package core

import (
	"math"
	"slices"
	"strings"
	"time"

	"filemig/internal/device"
	"filemig/internal/namespace"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// Options configures an Analysis pass.
type Options struct {
	// Start and Days bound the calendar series (Figures 4-6). When Start
	// is zero it is taken from the first record; when Days is zero it is
	// sized from the data.
	Start time.Time
	Days  int

	// DedupWindow is §5.3's rule: at most one read and one write per file
	// per window. It is also §6's coalescing window (Report.Coalesce).
	// Zero means the paper's eight hours.
	DedupWindow time.Duration

	// Tree, when set, supplies the full MSS namespace for Table 4's
	// directory rows and Figure 12. A trace only reveals directories
	// holding referenced files; the real archive — like NCAR's — also
	// carries empty directories ("more than half of the directories had
	// only zero or one file"), which only the namespace knows about.
	// When nil, directory statistics are derived from the trace alone
	// and are conditioned on non-emptiness.
	Tree *namespace.Tree

	// Journal retains the compact per-reference journal WriteSnapshot
	// serializes (one entry per good reference: FileID, op, start,
	// size), at ~24 bytes per record of extra memory. Dedup survival
	// under the §5.3 rule does not compose from per-shard end states —
	// earlier history can flip which accesses survive arbitrarily deep
	// into a shard — so exact snapshot merging replays this journal;
	// see docs/snapshots.md.
	Journal bool
}

// Analysis accumulates one streaming pass. Create with New, feed records
// in time order with Add, then call Report. The incremental paths — the
// b2 shard merger, the s1 snapshot codec, and the migd daemon — use this
// same type, cutting the trace into Partial
// segments and folding them (see accum.go); to keep all the paths
// byte-identical, every accumulator below is either an exact integer
// sum, a sample list whose queries are order-insensitive, or per-file
// state replayed in record order at merge time.
//
// The per-record hot path is flat: the op×class accumulators are fixed
// arrays indexed by (op index, device class), and per-file state lives in
// a FileID-indexed slice arena behind a trace.Interner rather than a
// string-keyed map of pointers, so a record's file lookup is one interner
// probe and the rest of Add touches only dense array slots.
type Analysis struct {
	opts Options
	sums
	days int

	// Figures 4-6: calendar series, raw bytes and request counts; the
	// GB conversions happen once, at Report time.
	hourBytes  [24][2]int64 // [hour][op]
	hourCount  [24][2]int64
	dayBytes   [7][2]int64
	weekBytes  map[int][2]int64 // week index -> [op] bytes, bar weekCur
	hourlyReqs []float64        // request count per absolute hour (periodicity)
	hourlyRead []float64

	// week is the week the last good reference fell in (once inWeek)
	// and weekCur its [op] bytes, which flushWeek writes back to
	// weekBytes: records arrive in time order, so the map is touched
	// once per week rather than once per record.
	week    int
	weekCur [2]int64
	inWeek  bool

	// Figure 7: global inter-request intervals. lastStart is the
	// previous good reference's UnixNano instant, once hasLast.
	lastStart int64
	hasLast   bool
	interCDF  *stats.CDF

	// Figure 10: dynamic size distributions, [op index]. Each access
	// size is held once, in dynFiles; the byte-weighted curves weigh a
	// sample by its own value, so Report derives them from the same
	// samples plus dynTotal, the sizes' running sum in record order.
	dynFiles [2]*stats.CDF
	dynTotal [2]float64

	// The fields above are the global series, the fields below the
	// per-file state. A two-lane fold (replayLanes) writes the two
	// halves from two goroutines at once, entry after entry; the pad
	// keeps them off each other's cache lines.
	_ [64]byte

	// Part two: per-file state in a FileID-indexed arena, and the paths
	// those FileIDs name. IDs are dense in first-seen record order, which
	// also fixes the (deterministic) iteration order of every per-file
	// report loop. The paths sit in the master's own table (interner:
	// the slice path, and a fold over segments on more than one table)
	// or, while every segment the master has folded sits over one table,
	// in that table, borrowed (borrow, see accum.go) — exactly one of
	// the two is set.
	interner *trace.Interner
	borrow   *borrowed
	files    []fileState

	// Table 4 and Figure 12: each file's directory (dirOf, by FileID),
	// numbered in the order a file first names it, and the deepest path
	// — filed as each file first appears, so the report reads no path.
	dirOf    []trace.DirID
	dirIDs   map[string]trace.DirID
	maxDepth int

	// Figure 9: interreference gaps, appended in record order as each
	// surviving access closes one — per-file gap lists are never stored.
	gapCDF *stats.CDF

	// §6 coalescing, counted by the per-file transition.
	coalesce Coalesce
}

// paddedCDF is a CDF alone on its cache line: during a two-lane fold the
// per-file lane appends to the gap CDF while the other lane appends to
// the interval and size CDFs, which New allocates beside it.
type paddedCDF struct {
	stats.CDF
	_ [32]byte
}

// sums is the part of an accumulation that an s1 snapshot serializes
// beside its path table, and all that a journal-only segment (Partial)
// holds: the resolved calendar origin, the record counts, everything
// that needs a record's device class or startup latency — which the
// journal does not carry — and the journal itself. Everything else an
// Analysis holds is a function of the journal and is recomputed by
// replaying it. Analysis embeds sums, so the slice path reads these
// fields as its own.
type sums struct {
	start time.Time

	// Table 3 accumulators: [op index][device class]. Bytes are summed as
	// integers (exact, order-independent); latency as (count, µs-sum)
	// cells held inline — no per-cell allocation.
	refs    [2][device.NClasses]int64
	bytes   [2][device.NClasses]int64
	latency [2][device.NClasses]latencyAgg
	errors  int64
	total   int64

	// Figure 3: latency to first byte per device class; nil until the
	// class shows a positive startup latency.
	latCDF [device.NClasses]*stats.CDF

	// journal is the good-reference journal (Options.Journal on the
	// slice path, always on in a Partial): exactly what snapshot merging
	// must replay, in record order.
	journal []journalEntry
}

// journalEntry is one good reference as the snapshot journal stores it:
// the file's dense ID, the direction, the start instant, and the size.
// Everything else a snapshot needs merges by sums or CDF concatenation.
type journalEntry struct {
	start int64 // UnixNano
	size  int64
	id    trace.FileID
	write bool
}

// opIndex collapses the two transfer directions onto array indices 0
// (read) and 1 (write).
func opIndex(op trace.Op) int {
	if op == trace.Write {
		return 1
	}
	return 0
}

// classIndex maps a device class onto its accumulator slot; classes
// outside the known range share the ClassUnknown slot rather than
// corrupting memory on malformed records.
func classIndex(c device.Class) int {
	if i := int(c); i >= 0 && i < device.NClasses {
		return i
	}
	return int(device.ClassUnknown)
}

// latencyAgg accumulates a mean latency exactly: an integer microsecond
// sum and a count merge across shards without floating-point drift.
type latencyAgg struct {
	n      int64
	micros int64
}

// meanSeconds reports the mean latency in seconds.
func (l *latencyAgg) meanSeconds() float64 {
	return float64(l.micros) / float64(l.n) / 1e6
}

// fileState is one file's part-two accumulator, held inline in the
// FileID-indexed arena — 56 bytes, no pointers (the instants are
// UnixNano, as in the journal), so growing or scanning the arena costs
// the collector nothing. A file's first good reference always survives
// dedup, so reads and writes double as the "ever read/written" flags.
type fileState struct {
	size      units.Bytes
	reads     int64 // references surviving dedup, per op
	writes    int64
	lastRead  int64 // meaningful once reads > 0
	lastWrite int64 // meaningful once writes > 0
	lastDedup int64 // last access surviving dedup, either op; meaningful once reads+writes > 0
	lastReq   int64 // last good reference, either op, deduplicated or not (§6 coalescing); likewise
}

// nanosSince is time.Time.Sub over UnixNano instants: t-u, saturating
// where the difference overflows a Duration.
func nanosSince(t, u int64) time.Duration {
	d := t - u
	switch {
	case t >= u && d < 0:
		return math.MaxInt64
	case t < u && d > 0:
		return math.MinInt64
	}
	return time.Duration(d)
}

// floorDiv is a/b rounded toward negative infinity, for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// calendar is one reference's place in the calendar series: its day,
// week and absolute hour since the origin (each truncated toward zero,
// as Duration division truncates), and its hour of day and weekday
// (0 = Sunday) on the record's own wall clock.
type calendar struct{ day, week, hourIdx, hour, weekday int }

// calendarAt places the UnixNano instant start against the UnixNano
// calendar origin in integer arithmetic alone, giving what time.Time's
// Sub, Hour and Weekday give for a start whose zone is zone seconds
// east of UTC — for instants in UnixNano's range, years 1678 to 2262,
// which the journal already requires.
func calendarAt(start, origin, zone int64) (c calendar) {
	since := nanosSince(start, origin)
	c.day, c.hourIdx = int(since/(24*time.Hour)), int(since/time.Hour)
	c.week = c.day / 7
	sec := floorDiv(start, int64(time.Second)) + zone
	days := floorDiv(sec, 24*60*60)
	c.hour = int(sec-days*24*60*60) / (60 * 60)
	c.weekday = int(((days+4)%7 + 7) % 7) // 1970-01-01 was a Thursday
	return c
}

// zoneOffset is t's zone offset in seconds east of UTC: what
// calendarAt needs to place t on t's own wall clock.
func zoneOffset(t time.Time) int64 {
	if t.Location() == time.UTC {
		return 0
	}
	_, off := t.Zone()
	return int64(off)
}

// New builds an Analysis.
func New(opts Options) *Analysis {
	opts.DedupWindow = dedupWindow(opts.DedupWindow)
	return &Analysis{
		opts:      opts,
		coalesce:  Coalesce{Window: opts.DedupWindow},
		weekBytes: map[int][2]int64{},
		interCDF:  &stats.CDF{},
		gapCDF:    &new(paddedCDF).CDF,
		interner:  trace.NewFileTable(),
		dirIDs:    map[string]trace.DirID{},
		dynFiles:  [2]*stats.CDF{{}, {}},
	}
}

// dedupWindow resolves Options.DedupWindow's zero default: the paper's
// eight hours.
func dedupWindow(d time.Duration) time.Duration {
	if d == 0 {
		return workload.DedupWindow
	}
	return d
}

// Add feeds one record. Records must arrive in non-decreasing start order.
func (a *Analysis) Add(r *trace.Record) {
	if !a.addShared(r) {
		return
	}
	a.addInterval(r.Start.UnixNano())
	a.addFileAccess(r.MSSPath, r.Op, r.Start, r.Size)
}

// addShared accumulates the whole-system statistics (Tables 3, Figures
// 3-6 and 10, the periodicity series): the sums a fold adds up, and the
// derived series it recomputes by replaying the journal. It reports
// whether the record is a good reference; error references are excluded
// from all further analysis, as in the paper (§5.1).
func (a *Analysis) addShared(r *trace.Record) bool {
	if !a.addSums(r, a.opts.Start) {
		return false
	}
	a.addDerived(r.Start.UnixNano(), zoneOffset(r.Start), opIndex(r.Op), int64(r.Size))
	return true
}

// addSums is the half of addShared a journal replay cannot recompute:
// the record counts, the calendar origin (origin, or else the first
// record's day), Table 3's op×class cells and Figure 3's latency CDFs —
// the last two need the device class and startup latency, which the
// journal does not carry, so snapshots serialize them directly and they
// stay out of addDerived. It reports whether the record is a good
// reference.
//
//filemig:hotpath
func (s *sums) addSums(r *trace.Record, origin time.Time) bool {
	s.total++
	if s.start.IsZero() {
		s.start = origin
		if s.start.IsZero() {
			s.start = r.Start.Truncate(24 * time.Hour)
		}
	}
	if !r.OK() {
		s.errors++
		return false
	}
	opIdx, cls := opIndex(r.Op), classIndex(r.Device)

	// Table 3.
	s.refs[opIdx][cls]++
	s.bytes[opIdx][cls] += int64(r.Size)
	if r.Startup > 0 {
		l := &s.latency[opIdx][cls]
		l.n++
		l.micros += int64(r.Startup / time.Microsecond)

		// Figure 3.
		c := s.latCDF[cls]
		if c == nil {
			c = &stats.CDF{} //lint:hotalloc-ok once per device class that ever shows a startup latency
			s.latCDF[cls] = c
		}
		c.Add(r.Startup.Seconds())
	}
	return true
}

// addDerived accumulates the whole-system statistics a good reference
// contributes beyond Table 3 and Figure 3: the calendar series (Figures
// 4-6), the periodicity series, and the dynamic size distributions
// (Figure 10). Everything here is a function of (start, op, size) alone
// — start a UnixNano instant, on a wall clock zone seconds east of UTC
// (a journal replay's is UTC) — which is why snapshot loading can
// recompute it by replaying the journal through this same method;
// a.start must be resolved first.
func (a *Analysis) addDerived(start, zone int64, opIdx int, size int64) {
	c := calendarAt(start, a.start.UnixNano(), zone)
	if c.day+1 > a.days {
		a.days = c.day + 1
	}

	// Figures 4-6.
	a.hourBytes[c.hour][opIdx] += size
	a.hourCount[c.hour][opIdx]++
	a.dayBytes[c.weekday][opIdx] += size
	if !a.inWeek || c.week != a.week {
		a.flushWeek()
		a.week, a.weekCur, a.inWeek = c.week, a.weekBytes[c.week], true
	}
	a.weekCur[opIdx] += size

	// Periodicity series.
	if hourIdx := c.hourIdx; hourIdx >= 0 {
		for len(a.hourlyReqs) <= hourIdx {
			a.hourlyReqs = append(a.hourlyReqs, 0)
			a.hourlyRead = append(a.hourlyRead, 0)
		}
		//lint:floatsum-ok integer-valued count incremented in record order, exact below 2^53
		a.hourlyReqs[hourIdx]++
		if opIdx == 0 {
			a.hourlyRead[hourIdx]++ //lint:floatsum-ok same integer-valued hourly counter as above
		}
	}

	// Figure 10 (dynamic sizes): every access counts.
	a.dynFiles[opIdx].Add(float64(size))
	a.dynTotal[opIdx] += float64(size) //lint:floatsum-ok accumulated in record order on every path (FoldPartials replays the journal through here, entry by entry), so all paths round alike
}

// flushWeek writes the current week's bytes back to weekBytes.
func (a *Analysis) flushWeek() {
	if a.inWeek {
		a.weekBytes[a.week] = a.weekCur
	}
}

// addInterval feeds Figure 7: the interval from the previous good
// reference anywhere in the trace to this one, at UnixNano start.
func (a *Analysis) addInterval(start int64) {
	if a.hasLast {
		a.interCDF.Add(nanosSince(start, a.lastStart).Seconds())
	}
	a.lastStart, a.hasLast = start, true
}

// addFileAccess advances one file's part-two state (reference counts,
// interreference gaps) under the §5.3 dedup rule. Dedup depends only on
// the file's own access history in time order, which is what lets the
// shard merge replay each shard's accesses through this same method. The
// file is resolved through the master's own table (taking one first if
// it was borrowing): a known path costs one table probe, a new one
// extends the arena by a single inline slot.
func (a *Analysis) addFileAccess(path string, op trace.Op, start time.Time, size units.Bytes) {
	if a.borrow != nil {
		a.ownTable()
	}
	a.addFileAccessID(a.extendFiles(a.interner.Intern(path), path), op, start.UnixNano(), size)
}

// extendFiles keeps the per-file arena in step with the path column:
// id is a FileID just resolved for path, one past the arena on first
// sight, when the file's directory is filed too. A full arena doubles,
// as a table's index does, rather than growing by append's quarter.
func (a *Analysis) extendFiles(id trace.FileID, path string) trace.FileID {
	if int(id) == len(a.files) {
		if len(a.files) == cap(a.files) {
			a.files = slices.Grow(a.files, len(a.files)+1)
			a.dirOf = slices.Grow(a.dirOf, cap(a.files)-len(a.dirOf))
		}
		a.files = append(a.files, fileState{})
		dir := trace.DirOf(path)
		d, ok := a.dirIDs[dir]
		if !ok {
			d = trace.DirID(len(a.dirIDs))
			a.dirIDs[dir] = d
		}
		a.dirOf = append(a.dirOf, d)
		a.maxDepth = max(a.maxDepth, depthOf(path))
	}
	return id
}

// addFileAccessID is addFileAccess below the interner: the per-file
// transition for an already-resolved FileID at a UnixNano instant —
// §6's coalescing count, then §5.3's dedup. Both depend only on the
// file's own references in time order, so every fold replays its
// journals through it directly and counts what the slice path counts;
// when the journal is enabled it is also the single capture point
// feeding that journal.
//
//filemig:hotpath
func (a *Analysis) addFileAccessID(id trace.FileID, op trace.Op, start int64, size units.Bytes) {
	if a.opts.Journal {
		a.appendJournal(id, op, start, size)
	}
	f := &a.files[id]
	f.size = size
	seen := f.reads+f.writes > 0

	// §6: a reference at most the window after the file's previous one,
	// of either op, is one a Cray-side request cache would absorb.
	a.coalesce.Requests++
	if seen && nanosSince(start, f.lastReq) <= a.opts.DedupWindow {
		a.coalesce.Savable++
		a.coalesce.BytesSaved += int64(size)
	}
	f.lastReq = start

	survives := false
	if op == trace.Read {
		if f.reads == 0 || nanosSince(start, f.lastRead) >= a.opts.DedupWindow {
			f.reads++
			f.lastRead = start
			survives = true
		}
	} else {
		if f.writes == 0 || nanosSince(start, f.lastWrite) >= a.opts.DedupWindow {
			f.writes++
			f.lastWrite = start
			survives = true
		}
	}
	if survives {
		if seen {
			a.gapCDF.Add(nanosSince(start, f.lastDedup).Hours() / 24)
		}
		f.lastDedup = start
	}
}

// appendJournal records one good reference in the snapshot/replay
// journal without advancing per-file dedup state — the capture half of
// addFileAccessID. Segment accumulators (Partial) call it directly:
// their per-file truth is replayed into a master at fold time, so
// running the dedup transition locally would be wasted work.
//
//filemig:hotpath
func (s *sums) appendJournal(id trace.FileID, op trace.Op, start int64, size units.Bytes) {
	s.journal = append(s.journal, journalEntry{start: start, size: int64(size), id: id, write: op == trace.Write})
}

// AddAll feeds a whole slice.
func (a *Analysis) AddAll(recs []trace.Record) {
	for i := range recs {
		a.Add(&recs[i])
	}
}

// depthOf counts path components below the root. (Directory derivation
// itself is trace.DirOf, the single copy of that rule.)
func depthOf(path string) int {
	return strings.Count(path, "/")
}
