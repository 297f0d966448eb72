package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
)

// The s1 analysis-snapshot codec: a serialized Analysis that any number
// of processes can produce over slices of a trace and a reducer can
// merge into a result byte-identical to one process analysing the whole
// trace — the map-reduce shape of the sharded in-process path
// (AccumulateB2Blocks) carried across process and machine boundaries. The
// full wire layout is specified in docs/snapshots.md; briefly, after a
// one-line ASCII header ("#filemig-trace b1"'s sibling,
// "#filemig-snapshot s1") a snapshot carries
//
//	meta      start time, dedup window, total/error counts
//	sums      the op×class accumulators (references, bytes, latency)
//	latency   one serialized CDF per device class (Figure 3)
//	interner  the path table, FileID-dense in first-seen order
//	journal   one (fileID, op, Δstart, size) entry per good reference
//
// Two facts shape the format. First, per-file dedup survival (§5.3)
// does not compose from end states: earlier history can flip which of a
// later shard's accesses survive arbitrarily deep into the shard, and
// Figure 9's interreference gaps must interleave across files in global
// record order — so the journal, not the per-file arena, is the
// serialized truth, and loading rebuilds the arena (plus everything
// else derivable from (time, op, size): the calendar and periodicity
// series, Figures 7 and 10) by replaying it through the exact code the
// slice path runs. Second, what is not derivable from the journal — the
// device-class split and the startup latencies — is serialized
// directly, and doubles as a structural cross-check: the op×class
// reference sums must equal the journal length, so a truncated snapshot
// fails to load. A standalone s1 file carries no checksum, so a flipped
// bit that keeps the structure consistent loads and skews the merge;
// CRC protection comes from the frames that carry s1 (migd checkpoints,
// dist results).

// snapHasStart marks a snapshot whose analysis has seen at least one
// record and therefore carries its resolved calendar origin. The
// remaining flag bits are reserved and must be zero.
const snapHasStart = 1 << 0

// maxSnapshotPathLen bounds interned path fields, matching the b1 trace
// codec's limit.
const maxSnapshotPathLen = 1 << 16

// maxSnapshotBlobLen bounds the length prefix of a serialized CDF
// section. Reading is chunked, so this is a sanity bound on the length
// field, not an allocation.
const maxSnapshotBlobLen = 1 << 40

// WriteSnapshot serializes the analysis accumulated so far in the s1
// format. It requires Options.Journal (the reference journal is the
// serialized source of per-file truth) and refuses an analysis carrying
// a namespace Tree, which is not serializable. Snapshots are typically
// written instead of reporting: a Report call is harmless but re-orders
// CDF samples in place, so only an unreported analysis re-saves
// byte-identically.
func (a *Analysis) WriteSnapshot(w io.Writer) error {
	if !a.opts.Journal {
		return errors.New("core: WriteSnapshot needs Options.Journal set from the start of the analysis")
	}
	if a.opts.Tree != nil {
		return errors.New("core: an analysis with a namespace Tree cannot be snapshotted (trees are not serialized)")
	}
	ww := trace.NewWireWriter(w)
	// The analysis's path column is the snapshot's path table as it
	// stands: dense, in first-seen order.
	view, order := a.pathColumn()
	if err := a.sums.encode(ww, a.opts.DedupWindow, view, order, nil); err != nil {
		return err
	}
	return ww.Flush()
}

// encode emits one s1 snapshot: the sums, then the path table, then the
// journal. order lists the snapshot's path table as indexes into paths
// in first-seen order; a nil order means paths is itself that table,
// whole and in order. local, when non-nil, maps the journal's IDs to
// positions in order; a nil local means they are those positions. The
// caller flushes.
func (s *sums) encode(ww *trace.WireWriter, dedup time.Duration, paths []string, order, local []trace.FileID) error {
	ww.Raw([]byte(trace.SnapshotHeader))
	ww.Byte('\n')

	var flags byte
	if !s.start.IsZero() {
		flags |= snapHasStart
	}
	ww.Byte(flags)
	if !s.start.IsZero() {
		ww.Svarint(s.start.UnixNano())
	}
	ww.Uvarint(uint64(dedup))
	ww.Uvarint(uint64(device.NClasses))
	ww.Uvarint(uint64(s.total))
	ww.Uvarint(uint64(s.errors))

	for oi := 0; oi < 2; oi++ {
		for ci := 0; ci < device.NClasses; ci++ {
			ww.Uvarint(uint64(s.refs[oi][ci]))
			ww.Uvarint(uint64(s.bytes[oi][ci]))
			ww.Uvarint(uint64(s.latency[oi][ci].n))
			ww.Uvarint(uint64(s.latency[oi][ci].micros))
		}
	}

	var blob []byte
	for ci := range s.latCDF {
		blob = blob[:0]
		if c := s.latCDF[ci]; c != nil {
			blob, _ = c.AppendBinary(blob) // error is always nil
		}
		ww.Bytes(blob)
	}

	if order == nil {
		ww.Uvarint(uint64(len(paths)))
		for _, p := range paths {
			ww.String(p)
		}
	} else {
		ww.Uvarint(uint64(len(order)))
		for _, id := range order {
			ww.String(paths[id])
		}
	}

	ww.Uvarint(uint64(len(s.journal)))
	var prev int64
	for k := range s.journal {
		e := &s.journal[k]
		id := e.id
		if local != nil {
			id = local[id]
		}
		idOp := uint64(id) << 1
		if e.write {
			idOp |= 1
		}
		ww.Uvarint(idOp)
		if k == 0 {
			ww.Svarint(e.start)
		} else {
			if e.start < prev {
				return fmt.Errorf("core: journal out of time order at entry %d", k+1)
			}
			ww.Uvarint(uint64(e.start - prev))
		}
		if e.size < 0 {
			return fmt.Errorf("core: journal entry %d has negative size %d", k+1, e.size)
		}
		ww.Uvarint(uint64(e.size))
		prev = e.start
	}
	return nil
}

// SegmentCodec moves journal-only segments in and out of the s1 format
// over one shared path table — the unit of migd's checkpoint. An s1
// snapshot numbers its paths densely in its own first-seen order, while
// the segments of a daemon number them by one daemon-wide table; the
// codec derives a segment's local table from its journal when encoding,
// and translates local IDs to table IDs (interning the snapshot's
// paths) when binding a decoded one, so the bytes are those a
// private-table producer writes. It keeps one table-sized translation
// scratch, one WireWriter and one WireReader across calls and is not
// safe for concurrent use. Codecs over one table are, as far as their
// methods touch it: Write reads only the path view it is handed, so the
// table may grow while codecs write; Decode does not touch it at all;
// Bind interns under its write lock.
type SegmentCodec struct {
	table *trace.SharedTable
	local []trace.FileID // table ID → snapshot-local ID while one snapshot is in flight, else NoFileID
	order []trace.FileID // snapshot-local ID → table ID
	ww    *trace.WireWriter
	wr    trace.WireReader
}

// NewSegmentCodec returns a codec over the given path table.
func NewSegmentCodec(table *trace.SharedTable) *SegmentCodec {
	return &SegmentCodec{table: table}
}

// place files table ID id as the snapshot in flight's next local ID,
// reporting false when the snapshot already holds it. size is the
// table's length as the caller reads it.
func (c *SegmentCodec) place(id trace.FileID, size int) bool {
	if int(id) >= len(c.local) {
		// Sized to the table, or doubled while a decode still grows it:
		// growing by append as IDs arrive copies a large table over many
		// times.
		grown := make([]trace.FileID, max(size, 2*len(c.local), int(id)+1))
		copy(grown, c.local)
		for i := len(c.local); i < len(grown); i++ {
			grown[i] = trace.NoFileID
		}
		c.local = grown
	}
	if c.local[id] != trace.NoFileID {
		return false
	}
	c.local[id] = trace.FileID(len(c.order))
	c.order = append(c.order, id)
	return true
}

// release clears the translation scratch after one snapshot, touching
// only the slots that snapshot used.
func (c *SegmentCodec) release() {
	for _, id := range c.order {
		c.local[id] = trace.NoFileID
	}
	c.order = c.order[:0]
}

// Write serializes one segment over the codec's table as an s1 snapshot,
// resolving its journal's IDs through paths: a prefix view of the
// table's paths (Paths) that covers them, taken under the table's lock.
// The segment stays live and can keep observing records afterwards.
func (c *SegmentCodec) Write(w io.Writer, p *Partial, paths []string) error {
	if p.paths != c.table.Interner {
		return errors.New("core: segment does not index this codec's path table")
	}
	defer c.release()
	for k := range p.journal {
		c.place(p.journal[k].id, len(paths))
	}
	if c.ww == nil {
		c.ww = trace.NewWireWriter(w)
	} else {
		c.ww.Reset(w)
	}
	if err := p.sums.encode(c.ww, p.dedup, paths, c.order, c.local); err != nil {
		return err
	}
	return c.ww.Flush()
}

// SnapshotPaths is a decoded snapshot's path table as the snapshot
// holds it, already validated: n length-prefixed paths, a view into the
// snapshot's bytes, which must stay as they are until Bind.
type SnapshotPaths struct {
	raw []byte
	n   int
}

// Decode turns one s1 snapshot held in memory straight into a
// journal-only segment — validating exactly what loading a snapshot
// validates, nothing replayed — that no table indexes yet: its journal
// holds the snapshot's own path IDs, and Bind, handed the path table
// Decode returns, makes them the codec table's. Decode reads no table,
// so many codecs decode at once while one binds what they decoded, in
// order (migd's restore); nothing may read the segment before Bind.
// first and last are the segment's record-time bounds where the caller
// recorded them (see setBounds).
func (c *SegmentCodec) Decode(snapshot []byte, first, last time.Time) (*Partial, SnapshotPaths, error) {
	c.wr.ResetBytes(snapshot)
	return c.decode(&c.wr, snapshot, first, last)
}

// Bind interns the paths of p, a segment Decode returned with paths,
// into the codec's table — under its write lock, in the snapshot's
// order — and rewrites p's journal to the table's IDs. A snapshot that
// names one path twice is refused. A failed Bind may already have
// interned some of the paths: a caller that must stay all-or-nothing
// binds into a table it can still discard.
func (c *SegmentCodec) Bind(p *Partial, paths SnapshotPaths) error {
	defer c.release()
	t := c.table
	c.wr.ResetBytes(paths.raw)
	t.Lock()
	for i := 0; i < paths.n; i++ {
		b, err := c.wr.Bytes("path", "path length", maxSnapshotPathLen)
		if err == nil && !c.place(t.InternBytes(b), t.Len()) {
			err = fmt.Errorf("path %d repeats an earlier path", i)
		}
		if err != nil {
			t.Unlock()
			return err
		}
	}
	t.Unlock()
	for k := range p.journal {
		e := &p.journal[k]
		e.id = c.order[e.id]
	}
	p.paths = t.Interner
	return nil
}

// MergeSnapshots loads any number of s1 snapshots — in trace time
// order, each covering a disjoint contiguous slice — and merges them
// into one Analysis whose rendered Report is byte-identical to a single
// process analysing the concatenated trace. Slice boundaries need not
// respect the dedup window or any shard width, and the snapshot
// producers need not have agreed on a calendar origin: the first
// snapshot's resolved origin anchors the merge, exactly as the first
// record anchors a single-process run. Dedup windows must agree across
// snapshots. On any decode or validation error the partial merge is
// discarded.
func MergeSnapshots(rs ...io.Reader) (*Analysis, error) {
	if len(rs) == 0 {
		return nil, errors.New("core: MergeSnapshots needs at least one snapshot")
	}
	sm := NewSnapshotMerger()
	for _, r := range rs {
		if err := sm.Add(r); err != nil {
			return nil, err
		}
	}
	return sm.Analysis()
}

// SnapshotMerger is MergeSnapshots for callers that receive snapshots
// one at a time — the distributed coordinator folds each arriving shard
// snapshot immediately instead of buffering them all. Snapshots must be
// Added in trace time order; the first snapshot's resolved origin
// anchors the merge. After any Add error the merger is poisoned and
// every later call fails the same way.
type SnapshotMerger struct {
	a    *Analysis
	n    int
	fail error
}

// NewSnapshotMerger returns an empty merger.
func NewSnapshotMerger() *SnapshotMerger {
	return &SnapshotMerger{a: New(Options{Journal: true})}
}

// Add folds the next snapshot in trace order.
func (sm *SnapshotMerger) Add(r io.Reader) error {
	if sm.fail != nil {
		return sm.fail
	}
	if err := sm.a.mergeSnapshot(r, sm.n == 0); err != nil {
		sm.fail = fmt.Errorf("core: snapshot %d: %w", sm.n+1, err)
		return sm.fail
	}
	sm.n++
	return nil
}

// Analysis returns the merged analysis — state-identical to a single
// process analysing the concatenated trace. It errors on an empty or
// poisoned merger.
func (sm *SnapshotMerger) Analysis() (*Analysis, error) {
	if sm.fail != nil {
		return nil, sm.fail
	}
	if sm.n == 0 {
		return nil, errors.New("core: no snapshots merged")
	}
	return sm.a, nil
}

// mergeSnapshot decodes one snapshot from r into a journal-only Partial
// over a table of its own and folds it into m through FoldPartials. The
// master is untouched on any decode or validation error.
func (m *Analysis) mergeSnapshot(r io.Reader, first bool) error {
	p, _, err := NewSegmentCodec(trace.NewSharedTable()).decode(trace.NewWireReader(r), nil, time.Time{}, time.Time{})
	if err != nil {
		return err
	}
	if first {
		m.opts.DedupWindow = p.dedup
	} else if m.opts.DedupWindow != p.dedup {
		return fmt.Errorf("dedup window %v disagrees with first snapshot's %v",
			p.dedup, m.opts.DedupWindow)
	}
	return m.FoldPartials([]*Partial{p})
}

// decode decodes one s1 snapshot into a journal-only Partial over the
// codec's table, validating structure and cross-checking the serialized
// sums against the journal as it goes. Nothing is replayed here: the
// returned segment holds the raw accumulators and the absolute-time
// journal, and a fold recomputes everything derivable when the segment
// merges into a master.
//
// held, when not nil, is the snapshot in memory that wr reads: its path
// table is then only validated, and handed back for Bind, and the
// journal keeps the snapshot's own IDs. A streaming reader reuses its
// buffer, so its paths are interned into the codec's table as they are
// read, and the segment comes back bound.
func (c *SegmentCodec) decode(wr *trace.WireReader, held []byte, first, last time.Time) (*Partial, SnapshotPaths, error) {
	var none SnapshotPaths
	line, err := wr.Line()
	if err != nil {
		return nil, none, fmt.Errorf("header: %w", err)
	}
	if line != trace.SnapshotHeader {
		return nil, none, fmt.Errorf("not an s1 snapshot header: %.60q", line)
	}
	flags, err := wr.ReadByte()
	if err != nil {
		return nil, none, fmt.Errorf("flags: %w", unexpectEOF(err))
	}
	if flags&^byte(snapHasStart) != 0 {
		return nil, none, fmt.Errorf("reserved flag bits set (0x%02x)", flags)
	}
	var start time.Time
	if flags&snapHasStart != 0 {
		ns, err := wr.Svarint("start time")
		if err != nil {
			return nil, none, err
		}
		start = time.Unix(0, ns).UTC()
	}
	dw, err := wr.Uvarint("dedup window", math.MaxInt64)
	if err != nil {
		return nil, none, err
	}
	if dw == 0 {
		return nil, none, errors.New("dedup window must be positive")
	}
	nc, err := wr.Uvarint("device class count", 64)
	if err != nil {
		return nil, none, err
	}
	if int(nc) != device.NClasses {
		return nil, none, fmt.Errorf("snapshot has %d device classes, this build has %d", nc, device.NClasses)
	}
	total, err := wr.Uvarint("total references", math.MaxInt64)
	if err != nil {
		return nil, none, err
	}
	errRefs, err := wr.Uvarint("error references", math.MaxInt64)
	if err != nil {
		return nil, none, err
	}
	if errRefs > total {
		return nil, none, fmt.Errorf("%d error references exceed %d total", errRefs, total)
	}

	sub := &sums{start: start, total: int64(total), errors: int64(errRefs)}

	// The op×class accumulators; their reference sum must match the
	// journal length below.
	var refsSum, latSum int64
	for oi := 0; oi < 2; oi++ {
		for ci := 0; ci < device.NClasses; ci++ {
			for _, f := range []struct {
				dst   *int64
				field string
			}{
				{&sub.refs[oi][ci], "references"},
				{&sub.bytes[oi][ci], "byte total"},
				{&sub.latency[oi][ci].n, "latency count"},
				{&sub.latency[oi][ci].micros, "latency total"},
			} {
				v, err := wr.Uvarint(f.field, math.MaxInt64)
				if err != nil {
					return nil, none, err
				}
				*f.dst = int64(v)
			}
			refsSum += sub.refs[oi][ci]
			latSum += sub.latency[oi][ci].n
		}
	}

	// Figure 3's per-class latency CDFs.
	var latSamples int64
	for ci := range sub.latCDF {
		blob, err := readBlob(wr, "latency cdf")
		if err != nil {
			return nil, none, err
		}
		if len(blob) == 0 {
			continue
		}
		c := &stats.CDF{}
		if err := c.UnmarshalBinary(blob); err != nil {
			return nil, none, fmt.Errorf("latency cdf class %d: %w", ci, err)
		}
		if c.N() == 0 {
			return nil, none, fmt.Errorf("latency cdf class %d: present but empty", ci)
		}
		sub.latCDF[ci] = c
		latSamples += int64(c.N())
	}
	if latSamples != latSum {
		return nil, none, fmt.Errorf("latency cdfs hold %d samples, op×class counts say %d", latSamples, latSum)
	}

	// The snapshot's path table, in its first-seen order, interned into
	// the codec's table; the journal below is rewritten to table IDs.
	nPaths, err := wr.Uvarint("path count", 1<<32)
	if err != nil {
		return nil, none, err
	}
	defer c.release()
	paths := SnapshotPaths{n: int(nPaths)}
	from := wr.Offset()
	if held == nil {
		c.table.Lock()
	}
	for i := uint64(0); i < nPaths; i++ {
		p, err := wr.Bytes("path", "path length", maxSnapshotPathLen)
		if err == nil && len(p) == 0 {
			err = fmt.Errorf("path %d is empty", i)
		}
		if err == nil && held == nil && !c.place(c.table.InternBytes(p), c.table.Len()) {
			err = fmt.Errorf("path %d repeats an earlier path", i)
		}
		if err != nil {
			if held == nil {
				c.table.Unlock()
			}
			return nil, none, err
		}
	}
	if held == nil {
		c.table.Unlock()
	} else {
		paths.raw = held[from:wr.Offset():wr.Offset()]
	}

	// The journal, decoded to absolute times for replay at fold time.
	nEntries, err := wr.Uvarint("journal entry count", math.MaxInt64)
	if err != nil {
		return nil, none, err
	}
	if int64(nEntries) != refsSum {
		return nil, none, fmt.Errorf("journal holds %d entries, op×class references sum to %d", nEntries, refsSum)
	}
	if total != errRefs+uint64(refsSum) {
		return nil, none, fmt.Errorf("%d total references != %d errors + %d good", total, errRefs, refsSum)
	}
	if nEntries > 0 && start.IsZero() {
		return nil, none, errors.New("journal entries present but no start instant")
	}
	sub.journal = make([]journalEntry, 0, capHint(nEntries))
	var prev int64
	seen := trace.FileID(0) // enforces dense first-seen ID order
	for k := uint64(0); k < nEntries; k++ {
		idOp, err := wr.Uvarint("journal file id", 1<<33-1)
		if err != nil {
			return nil, none, err
		}
		sid := trace.FileID(idOp >> 1)
		if uint64(sid) >= nPaths {
			return nil, none, fmt.Errorf("journal entry %d references path %d of %d", k+1, sid, nPaths)
		}
		if sid > seen {
			return nil, none, fmt.Errorf("journal entry %d breaks first-seen id order (%d after %d ids)", k+1, sid, seen)
		}
		if sid == seen {
			seen++
		}
		var at int64
		if k == 0 {
			at, err = wr.Svarint("journal start time")
			if err != nil {
				return nil, none, err
			}
		} else {
			dt, err := wr.Uvarint("journal time delta", math.MaxInt64)
			if err != nil {
				return nil, none, err
			}
			if prev > 0 && int64(dt) > math.MaxInt64-prev {
				return nil, none, fmt.Errorf("journal entry %d time overflows", k+1)
			}
			at = prev + int64(dt)
		}
		size, err := wr.Uvarint("journal size", math.MaxInt64)
		if err != nil {
			return nil, none, err
		}
		if held == nil {
			sid = c.order[sid]
		}
		sub.journal = append(sub.journal, journalEntry{start: at, size: int64(size), id: sid, write: idOp&1 != 0})
		prev = at
	}
	if uint64(seen) != nPaths {
		return nil, none, fmt.Errorf("interner table has %d paths but the journal references only %d", nPaths, seen)
	}
	if err := wr.ExpectEOF(); err != nil {
		return nil, none, err
	}
	p := &Partial{sums: sub, dedup: time.Duration(dw)}
	if held == nil {
		p.paths = c.table.Interner
	}
	p.setBounds(first, last)
	return p, paths, nil
}

// readBlob reads one length-prefixed binary section in window-sized
// chunks, so a corrupt length prefix cannot force a large allocation
// before the stream runs dry.
func readBlob(wr *trace.WireReader, field string) ([]byte, error) {
	n, err := wr.Uvarint(field+" length", maxSnapshotBlobLen)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, capHint(n))
	for remaining := n; remaining > 0; {
		chunk := remaining
		if chunk > 1<<15 {
			chunk = 1 << 15
		}
		b, err := wr.Fixed(field, int(chunk))
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
		remaining -= chunk
	}
	return out, nil
}

// capHint bounds a pre-allocation by a declared-but-unverified count.
func capHint(n uint64) int {
	if n > 1<<16 {
		return 1 << 16
	}
	return int(n)
}

// unexpectEOF converts a clean EOF into io.ErrUnexpectedEOF for fields
// that must be present.
func unexpectEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
