package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// The one online accumulator behind every analysis path. The slice and
// stream paths feed an Analysis directly (New + Add); every other
// path cuts the trace into journal-only Partial segments and merges them
// into a master through the one fold, FoldPartials: the b2 index-seek
// path, one block group per call, in time order, every segment over the
// run's one path table, which the shard workers keep extending while
// earlier segments fold; the s1 snapshot codec, one decoded snapshot per
// call; and the migd daemon (internal/serve), every segment of one
// capture of its state (Capture) at once, on demand, while ingest goes
// on extending the segments and their one daemon-wide path table.
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
// assignment by numbering segment paths in the order the replayed
// records first touch them, lazily, entry by entry, through one
// table-ID → master-ID remap per path table (idRemaps), and never takes
// a path no good reference names. While every segment a master folds
// sits over one table — a b2 run's shared table, one daemon's — the
// master borrows it (borrowed): a new file's master ID is the next
// number, its path the table's, read through a prefix view, and the
// remap persists from fold to fold. Over more than one table the master
// interns into a table of its own, with the hash the segment's table
// already holds, so it hashes no path string either way.
//
// The replay of a fold over more than one journal runs in two lanes (see
// replayLanes): the calling goroutine merges the journals and runs the
// global series, a second one runs the per-file half over the same
// merged entries, handed on in chunks. The two halves write disjoint
// fields of the master, so the lanes change no byte of any report.

// NewAccumulator is New under the name the benchmark module's fold probe
// calls.
func NewAccumulator(opts Options) *Analysis { return New(opts) }

// Partial is one trace segment's partial accumulation: exactly what an
// s1 snapshot serializes — the sums (start instant, counts, op×class
// cells, Figure 3 latency CDFs, the reference journal) over a path
// table — plus the segment's boundary instants for ordering segments at
// fold time. It is journal-only: every derived series is a function of
// the journal, which FoldPartials replays into the master.
type Partial struct {
	*sums

	// paths is the table the journal's FileIDs index: a b2 run's shared
	// table (every segment of the run sits over it), one daemon's
	// (likewise), or private to the segment (AccumulatePartial, a decoded
	// snapshot — dense in the segment's own first-seen order). view and
	// hview, when set, are the prefixes of its paths and path hashes the
	// journal can reference, captured under the table's lock when a
	// shard worker finished the segment or a daemon captured it: what a
	// fold or a codec on another goroutine reads through while the table
	// goes on growing.
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

// Grow reserves room in the segment's journal for n more records, so a
// run of them observes without the journal growing entry by entry.
func (p *Partial) Grow(n int) { p.journal = slices.Grow(p.journal, n) }

// Records reports how many records the segment has observed, errors
// included.
func (p *Partial) Records() int64 { return p.total }

// Errors reports how many of the segment's records were error records.
func (p *Partial) Errors() int64 { return p.errors }

// VisitRefs replays the segment's good references in record order,
// calling fn with each reference's FileID in the segment's path table,
// op, start (UnixNano), and size — the hook migd uses to rebuild its
// live per-file rows after decoding segments from a checkpoint.
func (p *Partial) VisitRefs(fn func(id trace.FileID, op trace.Op, start int64, size units.Bytes)) {
	for k := range p.journal {
		e := &p.journal[k]
		op := trace.Read
		if e.write {
			op = trace.Write
		}
		fn(e.id, op, e.start, units.Bytes(e.size))
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
// worker finished the segment or a daemon captured it, else the table
// as it stands (a private table's segment).
func (p *Partial) pathView() ([]string, []uint64) {
	if p.view != nil {
		return p.view, p.hview
	}
	return p.paths.Paths(), p.paths.Hashes()
}

// Capture returns a copy of the segment as it stands, for a fold or a
// codec on another goroutine to read while the segment's owner goes on
// observing into it and extending its table: the sums by value, the
// journal and the latency samples cut to their current length, which
// later observations append past, and the table's current prefix views,
// which any segment over the table it is folded with reads through (see
// FoldPartials). The caller holds the lock that guards the segment and
// its table, for reading.
func (p *Partial) Capture() *Partial {
	s := *p.sums
	s.journal = slices.Clip(s.journal)
	for ci, c := range s.latCDF {
		if c != nil {
			s.latCDF[ci] = c.Prefix()
		}
	}
	cp := *p
	cp.sums = &s
	cp.view, cp.hview = p.paths.Paths(), p.paths.Hashes()
	return &cp
}

// AccumulatePartial runs one contiguous segment of records through a
// fresh segment over a private path table, its journal sized for recs.
func AccumulatePartial(opts Options, recs []trace.Record) *Partial {
	paths := trace.NewFileTable()
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
// in a call shares a remap and a file costs the master one lookup per
// table that knows it. The table pointer is only ever a key here; paths
// and hashes are read through views.
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

// borrowed is a master's path column while every segment it has folded
// sits over one table: instead of a table of its own, the master keeps
// the translations between that table's IDs and its own and reads paths
// through the longest prefix views of the table a fold has captured —
// never the live table, which its owner goes on extending. Master IDs
// are the next number on a file's first appearance, the order a table
// of the master's own would assign.
type borrowed struct {
	table *trace.Interner // the table the segments sit over: a key only
	remap []trace.FileID  // table ID → master ID, NoFileID until met
	order []trace.FileID  // master ID → table ID
	view  []string        // the table's paths and hashes, as far as a fold has seen them
	hview []uint64
}

// adoptTable settles, before a fold of ps, where the master's IDs come
// from: a master that has met no file borrows the table of the first
// segment with a journal, and a borrowing master that meets a segment
// over another table interns its column into a table of its own, once.
func (a *Analysis) adoptTable(ps []*Partial) {
	fresh := a.borrow == nil && len(a.files) == 0
	for _, p := range ps {
		switch {
		case len(p.journal) == 0:
		case fresh:
			a.interner, a.borrow, fresh = nil, &borrowed{table: p.paths}, false
		case a.borrow != nil && p.paths != a.borrow.table:
			a.ownTable()
		}
	}
}

// ownTable ends a borrow: the master interns its column, in master-ID
// order and so under the same IDs, into a table of its own, which every
// later fold and Add goes through.
func (a *Analysis) ownTable() {
	b := a.borrow
	in := trace.NewFileTable()
	in.Grow(len(b.order))
	for _, id := range b.order {
		in.InternHashed(b.view[id], b.hview[id])
	}
	a.interner, a.borrow = in, nil
}

// pathColumn returns the master's paths by FileID: view[id], or
// view[order[id]] when order is non-nil (a borrowed table).
func (a *Analysis) pathColumn() (view []string, order []trace.FileID) {
	if b := a.borrow; b != nil {
		return b.view, b.order
	}
	return a.interner.Paths(), nil
}

// masterID translates one journal ID through remap on the ID's first
// appearance: the next master ID when borrowing, else view[id] interned
// into the master's table under the hash hview[id] its table holds.
//
//filemig:hotpath
func (a *Analysis) masterID(remap []trace.FileID, view []string, hview []uint64, id trace.FileID) trace.FileID {
	m := remap[id]
	if m == trace.NoFileID {
		if b := a.borrow; b != nil {
			m = trace.FileID(len(b.order))
			b.order = append(b.order, id)
		} else {
			m = a.interner.InternHashed(view[id], hview[id])
		}
		m = a.extendFiles(m, view[id])
		remap[id] = m
	}
	return m
}

// reserve makes room in the master for a replay of refs good references
// — ops[i] of them in op i — over at most files files it has not met,
// reaching hours hours into the calendar: the per-reference CDFs, the
// per-file arena and path column, and the periodicity series each grow
// once, to what the replay will hold, rather than by append's steps.
// The arena and index at least double when they grow, as they do
// unreserved, so many small folds into one master still grow them
// geometrically.
func (a *Analysis) reserve(refs int, ops [2]int, files, hours int) {
	a.interCDF.Grow(refs)
	a.gapCDF.Grow(max(0, refs-files)) // a file's first reference closes no gap
	for oi, n := range ops {
		a.dynFiles[oi].Grow(n)
	}
	if need := len(a.files) + files; need > cap(a.files) {
		a.files = append(make([]fileState, 0, max(need, 2*cap(a.files))), a.files...)
		a.dirOf = append(make([]trace.DirID, 0, cap(a.files)), a.dirOf...)
	}
	if b := a.borrow; b != nil {
		b.order = slices.Grow(b.order, files)
	} else {
		a.interner.Grow(files)
	}
	if hours > cap(a.hourlyReqs) {
		a.hourlyReqs = slices.Grow(a.hourlyReqs, hours-len(a.hourlyReqs))
		a.hourlyRead = slices.Grow(a.hourlyRead, hours-len(a.hourlyRead))
	}
}

// hoursThrough is how long the periodicity series runs when its last
// reference starts at UnixNano instant last: last's absolute hour since
// origin, plus one.
func hoursThrough(last int64, origin time.Time) int {
	return max(0, int(nanosSince(last, origin.UnixNano())/time.Hour)+1)
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
// each path table in play gets one flat table-ID → master-ID remap,
// filled on a file's first appearance in the merged order — so the
// segments of a daemon, which share one table, share one remap and a
// file costs the master one lookup however many segments name it. A
// master whose segments all sit over one table borrows it (see
// borrowed) and keeps that table's remap from call to call; otherwise
// the remaps last one call and the master interns into its own table
// under the hash the segment's table holds, so no path string is hashed
// at all. A fold of more than one journal and more than foldChunk
// entries — migd's report — replays in two lanes (replayLanes); one
// journal per call, as the b2 and s1 paths fold, replays on the calling
// goroutine alone.
func (a *Analysis) FoldPartials(ps []*Partial) error {
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

	var ops [2]int
	for _, p := range ps {
		n := a.foldSums(p.sums)
		ops[0], ops[1] = ops[0]+n[0], ops[1]+n[1]
	}
	a.adoptTable(ps)

	// Merge-replay the journals. The heap orders by (start, segment
	// index); within one segment the journal is already in record order,
	// so only each segment's next entry competes. File IDs intern
	// lazily, on first appearance in the merged order.
	h := make(journalHeap, 0, len(ps))
	remaps := make([][]trace.FileID, len(ps))
	views := make([][]string, len(ps))
	hviews := make([][]uint64, len(ps))
	byTable := idRemaps{}
	b := a.borrow
	if b != nil {
		byTable[b.table] = b.remap
	}
	// A segment reads its table through the longest prefix views a
	// segment over that table carries: a daemon's capture takes them for
	// each stripe's latest segment alone (Capture) and shares the rest.
	viewed := map[*trace.Interner]*Partial{}
	for _, p := range ps {
		if q := viewed[p.paths]; len(p.view) > 0 && (q == nil || len(p.view) > len(q.view)) {
			viewed[p.paths] = p
		}
	}
	// The tables' lengths bound the files the replay can meet: exactly,
	// for a daemon's one table, which holds only paths its journals name.
	files, last := 0, int64(math.MinInt64)
	for si, p := range ps {
		if len(p.journal) == 0 {
			continue
		}
		h = append(h, journalCursor{si: si, start: p.journal[0].start})
		last = max(last, p.journal[len(p.journal)-1].start)
		if q := viewed[p.paths]; q != nil {
			views[si], hviews[si] = q.view, q.hview
		} else {
			views[si], hviews[si] = p.pathView()
		}
		known := len(byTable[p.paths])
		files += len(byTable.covering(p.paths, len(views[si]))) - known
		if b != nil && len(views[si]) > len(b.view) {
			b.view, b.hview = views[si], hviews[si]
		}
	}
	// Only now is each table's remap as long as it gets this call.
	for si, p := range ps {
		remaps[si] = byTable[p.paths]
	}
	if b != nil {
		b.remap = byTable[b.table]
	}
	if entries > 0 {
		a.reserve(entries, ops, min(files, entries), hoursThrough(last, a.start))
	}
	h.init()
	r := fileReplay{a: a, remaps: remaps, views: views, hviews: hviews}
	if len(h) > 1 && entries > foldChunk {
		a.replayLanes(ps, h, &r, entries)
		return nil
	}
	for si, e, ok := h.next(ps); ok; si, e, ok = h.next(ps) {
		a.replayGlobal(e)
		r.replay(si, e)
	}
	return nil
}

// foldChunk is how many merged journal entries the global lane of a
// two-lane replay hands the per-file lane at a time, and foldChunks how
// many such chunks are in flight at most: enough that neither lane waits
// on the other's next step, small enough that the chunks cost a fold
// 16 KB.
const (
	foldChunk  = 1024
	foldChunks = 4
)

// replayLanes is the replay of a fold over more than one journal, in two
// lanes that each take one half of every entry's transitions. The
// calling goroutine k-way-merges the journals and runs the global
// series (replayGlobal), handing on the merged order in chunks — each
// entry as its segment's index, since the per-file lane walks every
// journal with a cursor of its own; one more goroutine takes them in
// the same order and runs the per-file half (fileReplay). The halves
// write disjoint fields of the master — the calendar, periodicity,
// interval and dynamic-size series on one side; the path column, the
// per-file arena, the directories, the gap CDF, the coalescing count
// and the master's own journal on the other — and each sees every entry
// in merged order, so the master ends exactly as the one-lane loop
// leaves it.
func (a *Analysis) replayLanes(ps []*Partial, h journalHeap, r *fileReplay, entries int) {
	n := min(foldChunks, (entries+foldChunk-1)/foldChunk)
	full := make(chan []int32, n)
	free := make(chan []int32, n)
	for range n {
		free <- make([]int32, 0, foldChunk)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := make([]int, len(ps))
		for chunk := range full {
			for _, si := range chunk {
				r.replay(int(si), &ps[si].journal[next[si]])
				next[si]++
			}
			free <- chunk[:0]
		}
	}()
	chunk := <-free
	for si, e, ok := h.next(ps); ok; si, e, ok = h.next(ps) {
		a.replayGlobal(e)
		if chunk = append(chunk, int32(si)); len(chunk) == foldChunk {
			full <- chunk
			chunk = <-free
		}
	}
	full <- chunk
	close(full)
	<-done
}

// replayGlobal is the half of one entry's replay that reads no file:
// the calendar, periodicity and dynamic-size series and Figure 7's
// global interval.
func (a *Analysis) replayGlobal(e *journalEntry) {
	opIdx := 0
	if e.write {
		opIdx = 1
	}
	a.addDerived(e.start, 0, opIdx, e.size)
	a.addInterval(e.start)
}

// fileReplay is the per-file half of a fold's replay: each segment's
// remap and path views, through which an entry's ID becomes the
// master's before the per-file transition runs.
type fileReplay struct {
	a      *Analysis
	remaps [][]trace.FileID
	views  [][]string
	hviews [][]uint64
}

// replay runs segment si's entry e through the per-file transition.
func (r *fileReplay) replay(si int, e *journalEntry) {
	op := trace.Read
	if e.write {
		op = trace.Write
	}
	a := r.a
	a.addFileAccessID(a.masterID(r.remaps[si], r.views[si], r.hviews[si], e.id), op, e.start, units.Bytes(e.size))
}

// journalCursor is one segment's replay position in the merge heap.
type journalCursor struct {
	start int64 // the segment's next entry's start, UnixNano
	si    int   // segment index, the tie-break
	k     int   // next journal index
}

// journalHeap is a min-heap of journal cursors by (start, segment).
type journalHeap []journalCursor

func (h journalHeap) less(i, j int) bool {
	if h[i].start != h[j].start {
		return h[i].start < h[j].start
	}
	return h[i].si < h[j].si
}

// next pops the next entry of the journals of ps in merged order — by
// start instant, ties in segment order — with its segment's index, or
// false once every journal is spent.
func (h *journalHeap) next(ps []*Partial) (si int, e *journalEntry, ok bool) {
	if len(*h) == 0 {
		return 0, nil, false
	}
	cur := &(*h)[0]
	si, j := cur.si, ps[cur.si].journal
	e = &j[cur.k]
	if cur.k++; cur.k < len(j) {
		cur.start = j[cur.k].start
	} else {
		*cur = (*h)[len(*h)-1]
		*h = (*h)[:len(*h)-1]
	}
	h.down(0)
	return si, e, true
}

// init orders the heap.
func (h journalHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts cursor i down to its place.
func (h journalHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// foldSums folds a segment's position-independent state into the
// master — record and error counts, the op×class accumulators, and the
// Figure 3 startup-latency CDFs — the part every fold shares because it
// adds up the same whatever order or origin the segments have. It
// returns the segment's good references by op.
func (a *sums) foldSums(sub *sums) (ops [2]int) {
	a.total += sub.total
	a.errors += sub.errors
	for oi := 0; oi < 2; oi++ {
		for ci := 0; ci < device.NClasses; ci++ {
			a.refs[oi][ci] += sub.refs[oi][ci]
			ops[oi] += int(sub.refs[oi][ci])
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
	return ops
}
