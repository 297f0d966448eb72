package core

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"time"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// The one online accumulator behind every analysis path. The slice and
// stream paths feed an Accumulator directly (New + Add); every other
// path cuts the trace into journal-only Partial segments and merges them
// into a master through the one fold, FoldPartials: the b2 index-seek
// path, one block group per call, in time order, each segment over its
// shard worker's path table, which the worker keeps extending while
// earlier segments fold; the s1 snapshot codec, one decoded snapshot per
// call; and the migd daemon (internal/serve), every ingest segment over
// its one daemon-wide path table at once, on demand.
//
// The fold makes no origin assumption: only the fields a journal replay
// cannot recompute — the op×class accumulators and the startup-latency
// CDFs, which need the device class the journal does not carry — fold by
// addition, and everything else is recomputed by k-way merging the
// segments' journals back into global record time and replaying them
// through the exact per-record transitions the slice path runs. Segments
// within one call may interleave arbitrarily (a live daemon's
// out-of-order batch arrivals); across calls they must come in trace
// order (b2 block groups, snapshots produced by different processes).
//
// The fold replays per-file state rather than merging it, because §5.3
// dedup survival does not compose from end states (see the package
// comment in snapshot.go), and preserves the master's first-seen FileID
// assignment by interning segment paths in the order the replayed
// records first touch them, lazily, entry by entry, through one
// table-ID → master-ID remap per path table (idRemaps), with the hash
// the segment's table already holds — so the master hashes no path
// string, probes its table once per path per table that knows it within
// a call, and never takes a path no good reference names.

// Accumulator is the unified online accumulator: Analysis under the name
// the incremental paths use. The two names alias one type.
type Accumulator = Analysis

// NewAccumulator builds an empty online accumulator — New under its
// accumulator name.
func NewAccumulator(opts Options) *Accumulator { return New(opts) }

// Partial is one trace segment's partial accumulation: exactly what an
// s1 snapshot serializes — the sums (start instant, counts, op×class
// cells, Figure 3 latency CDFs, the reference journal) over a path
// table — plus the segment's boundary instants for ordering segments at
// fold time. It is journal-only: every derived series is a function of
// the journal, which FoldPartials replays into the master.
type Partial struct {
	*sums

	// paths is the table the journal's FileIDs index: a shard worker's
	// (every segment that worker accumulates sits over it), one daemon's
	// (likewise), or private to the segment (AccumulatePartial, a decoded
	// snapshot — dense in the segment's own first-seen order). view and
	// hview, when set, are the prefixes of its paths and path hashes the
	// journal can reference, captured by the goroutine that owns the
	// table when the segment was finished: what a fold on another
	// goroutine reads through while the owner goes on interning.
	paths  *trace.Interner
	view   []string
	hview  []uint64
	dedup  time.Duration
	origin time.Time // Options.Start: the calendar origin, when pinned

	// first and last bound every observed record, errors included;
	// firstOK and lastOK bound the good references only.
	first, last     time.Time
	firstOK, lastOK time.Time
}

// NewSegment opens an empty journal-only segment over a shared path
// table: Observe runs the sums half of the slice path's accumulation
// and appends the journal entry, nothing else, so a segment costs its
// journal and a few hundred bytes. The caller owns paths and its
// locking: it interns a record's path (under whatever lock guards the
// table) before handing Observe the ID.
func NewSegment(opts Options, paths *trace.Interner) *Partial {
	return &Partial{sums: &sums{}, paths: paths, dedup: dedupWindow(opts.DedupWindow), origin: opts.Start}
}

// Observe feeds one record into the segment; id is the FileID of the
// record's MSS path in the segment's path table (ignored for an error
// record). Records must arrive in non-decreasing start order within the
// segment. Per-file dedup state is not advanced here — it cannot be
// known without the earlier segments — only captured in the journal for
// replay at fold time.
//
//filemig:hotpath
func (p *Partial) Observe(r *trace.Record, id trace.FileID) {
	if p.first.IsZero() {
		p.first = r.Start
	}
	p.last = r.Start
	if !p.addSums(r, p.origin) {
		return
	}
	p.appendJournal(id, r.Op, r.Start.UnixNano(), r.Size)
	if p.firstOK.IsZero() {
		p.firstOK = r.Start
	}
	p.lastOK = r.Start
}

// Records reports how many records the segment has observed, errors
// included.
func (p *Partial) Records() int64 { return p.total }

// Errors reports how many of the segment's records were error records.
func (p *Partial) Errors() int64 { return p.errors }

// VisitRefs replays the segment's good references in record order,
// calling fn with each reference's FileID in the segment's path table,
// op, start, and size — the hook migd uses to rebuild its live per-file
// rows after decoding segments from a checkpoint.
func (p *Partial) VisitRefs(fn func(id trace.FileID, op trace.Op, start time.Time, size units.Bytes)) {
	for k := range p.journal {
		e := &p.journal[k]
		op := trace.Read
		if e.write {
			op = trace.Write
		}
		fn(e.id, op, time.Unix(0, e.start).UTC(), units.Bytes(e.size))
	}
}

// Bounds reports the segment's first and last observed record times
// (zero for an empty segment), errors included.
func (p *Partial) Bounds() (first, last time.Time) { return p.first, p.last }

// setBounds installs a decoded segment's record-time bounds: the
// good-reference bounds come from the journal, and the all-record bounds
// are first and last where the caller recorded them (the s1 format does
// not carry the bounds of error records; the daemon's checkpoint frames
// do), else the good-reference bounds. A segment with neither — an s1
// snapshot of error records only — takes its start instant as its first
// bound, so it still anchors a fold's calendar as its records would.
func (p *Partial) setBounds(first, last time.Time) {
	p.first, p.last = first, last
	if n := len(p.journal); n > 0 {
		p.firstOK = time.Unix(0, p.journal[0].start).UTC()
		p.lastOK = time.Unix(0, p.journal[n-1].start).UTC()
		if p.first.IsZero() {
			p.first = p.firstOK
		}
		if p.last.IsZero() {
			p.last = p.lastOK
		}
	}
	if p.first.IsZero() {
		p.first = p.start
	}
}

// pathView returns the FileID-indexed paths and path hashes the
// journal's IDs resolve through: the prefixes captured when a shard
// worker finished the segment, else the table as it stands (a daemon's
// segments — the caller holds whatever lock guards that table).
func (p *Partial) pathView() ([]string, []uint64) {
	if p.view != nil {
		return p.view, p.hview
	}
	return p.paths.Paths(), p.paths.Hashes()
}

// AccumulatePartial runs one contiguous segment of records through a
// fresh segment over a private path table, its journal sized for recs.
func AccumulatePartial(opts Options, recs []trace.Record) *Partial {
	paths := trace.NewInterner()
	p := NewSegment(opts, paths)
	p.journal = make([]journalEntry, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		var id trace.FileID
		if r.OK() {
			id = paths.Intern(r.MSSPath)
		}
		p.Observe(r, id)
	}
	return p
}

// idRemaps is the fold-side half of path interning: one flat table-ID →
// master-ID translation per path table in play, NoFileID marking an ID
// the master has not met. FoldPartials fills it lazily through masterID
// as the replay first touches each file, so every segment of one daemon
// in a call shares a remap and a file costs the master one probe, and no
// string hash, per table that knows it. The table pointer is only ever a
// key here; paths and hashes are read through views.
type idRemaps map[*trace.Interner][]trace.FileID

// covering returns table's remap, extended to translate IDs below n.
func (m idRemaps) covering(table *trace.Interner, n int) []trace.FileID {
	remap := m[table]
	if k := len(remap); k < n {
		remap = slices.Grow(remap, n-k)[:n]
		for i := k; i < n; i++ {
			remap[i] = trace.NoFileID
		}
		m[table] = remap
	}
	return remap
}

// masterID translates one journal ID through remap, interning
// view[id] into the master, under the hash hview[id] its table holds,
// on the ID's first appearance.
//
//filemig:hotpath
func (a *Accumulator) masterID(remap []trace.FileID, view []string, hview []uint64, id trace.FileID) trace.FileID {
	m := remap[id]
	if m == trace.NoFileID {
		m = a.extendFiles(a.interner.InternHashed(view[id], hview[id]))
		remap[id] = m
	}
	return m
}

// FoldPartials merges any number of segments into the master without a
// shared calendar origin: the position-independent state — record and
// error counts, the op×class accumulators, the startup-latency CDFs,
// which need the device class the journal does not carry — folds by
// addition in any order, and the segments' journals are then merged
// into one global time order and replayed through the per-record
// transitions the slice path runs, recomputing every derived series
// (calendar, periodicity, Figure 7 intervals, Figure 10, per-file
// state). The segments' record-time ranges may interleave arbitrarily —
// a live daemon's batches arrive from concurrent clients in no
// particular order, and a late single event may split an
// already-extended segment's range — provided the records themselves
// are distinct instants; ties across segments replay in the given
// segment order. The master may already hold data (the b2 index-seek
// path folds one block group per call and the s1 merge one snapshot per
// call, both in trace order), but a segment whose first reference
// precedes the master's last is an error, as is a dedup-window
// disagreement. Master file IDs are assigned in replay
// order, exactly as a single process reading the merged trace would:
// each path table in play gets one flat table-ID → master-ID remap for
// the call, filled on a file's first appearance in the merged order —
// so the segments of a daemon, which share one table, share one remap
// and a file costs the master one probe however many segments name it,
// and no string hash at all: it interns under the hash the segment's
// table holds.
func (a *Accumulator) FoldPartials(ps []*Partial) error {
	entries := 0
	for i, p := range ps {
		if p.dedup != a.opts.DedupWindow {
			return fmt.Errorf("core: segment %d dedup window %v disagrees with the master's %v",
				i, p.dedup, a.opts.DedupWindow)
		}
		if len(p.journal) > 0 && a.hasLast && p.journal[0].start < a.lastStart {
			return fmt.Errorf("segment starts at %v, before already-merged data ending %v (segments must fold in trace order)",
				time.Unix(0, p.journal[0].start).UTC(), time.Unix(0, a.lastStart).UTC())
		}
		entries += len(p.journal)
	}

	// Anchor the calendar origin once, the way the slice path does: from
	// the explicit option, else from the earliest segment's own anchor —
	// which that segment resolved from its first record, errors
	// included.
	if a.start.IsZero() {
		a.start = a.opts.Start
	}
	if a.start.IsZero() {
		var first time.Time
		for _, p := range ps {
			if !p.first.IsZero() && (first.IsZero() || p.first.Before(first)) {
				first, a.start = p.first, p.start
			}
		}
	}
	if entries > 0 && a.start.IsZero() {
		return errors.New("core: journal entries present but no segment has a start time")
	}

	for _, p := range ps {
		a.foldSums(p.sums)
	}

	// Merge-replay the journals. The heap orders by (start, segment
	// index); within one segment the journal is already in record order,
	// so only each segment's next entry competes. File IDs intern
	// lazily, on first appearance in the merged order.
	h := make(journalHeap, 0, len(ps))
	remaps := make([][]trace.FileID, len(ps))
	views := make([][]string, len(ps))
	hviews := make([][]uint64, len(ps))
	byTable := idRemaps{}
	for si, p := range ps {
		if len(p.journal) == 0 {
			continue
		}
		h = append(h, journalCursor{si: si, start: p.journal[0].start})
		views[si], hviews[si] = p.pathView()
		remaps[si] = byTable.covering(p.paths, len(views[si]))
	}
	heap.Init(&h)
	for len(h) > 0 {
		cur := &h[0]
		p := ps[cur.si]
		e := &p.journal[cur.k]
		op := trace.Read
		opIdx := 0
		if e.write {
			op, opIdx = trace.Write, 1
		}
		a.addDerived(e.start, 0, opIdx, e.size)
		a.addInterval(e.start)
		a.addFileAccessID(a.masterID(remaps[cur.si], views[cur.si], hviews[cur.si], e.id), op, e.start, units.Bytes(e.size))
		if cur.k++; cur.k < len(p.journal) {
			cur.start = p.journal[cur.k].start
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// journalCursor is one segment's replay position in the merge heap.
type journalCursor struct {
	start int64 // the segment's next entry's start, UnixNano
	si    int   // segment index, the tie-break
	k     int   // next journal index
}

// journalHeap is a min-heap of journal cursors by (start, segment).
type journalHeap []journalCursor

func (h journalHeap) Len() int { return len(h) }
func (h journalHeap) Less(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	return h[i].si < h[j].si
}
func (h journalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *journalHeap) Push(x any)   { *h = append(*h, x.(journalCursor)) }
func (h *journalHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// foldSums folds a segment's position-independent state into the
// master — record and error counts, the op×class accumulators, and the
// Figure 3 startup-latency CDFs — the part every fold shares because it
// adds up the same whatever order or origin the segments have.
func (a *sums) foldSums(sub *sums) {
	a.total += sub.total
	a.errors += sub.errors
	for oi := 0; oi < 2; oi++ {
		for ci := 0; ci < device.NClasses; ci++ {
			a.refs[oi][ci] += sub.refs[oi][ci]
			a.bytes[oi][ci] += sub.bytes[oi][ci]
			a.latency[oi][ci].n += sub.latency[oi][ci].n
			a.latency[oi][ci].micros += sub.latency[oi][ci].micros
		}
	}
	for ci, c := range sub.latCDF {
		if c == nil {
			continue
		}
		m := a.latCDF[ci]
		if m == nil {
			m = &stats.CDF{}
			a.latCDF[ci] = m
		}
		m.Merge(c)
	}
}
