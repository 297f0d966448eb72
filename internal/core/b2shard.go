package core

import (
	"context"
	"fmt"
	"time"

	"filemig/internal/pool"
	"filemig/internal/trace"
)

// The index-seek analysis path for b2 traces — the one sharded path,
// which AccumulateStream takes for every b2 stream: a sequential source
// has a serial decoder, so its analysis is a plain loop, but a b2
// file's trailing index already says how many records each block holds
// and what time range they cover. Shard cutting here is
// pure planning over index metadata: blocks are grouped into contiguous
// shard-width runs, each run is decoded into a journal-only Partial by a
// pool worker, each block exactly once, and the Partials fold into the
// master in run order, one FoldPartials call each. The result is
// byte-identical to New + AddAll + Report for ANY contiguous partition
// of the record sequence:
//
//   - counts, byte totals and Figure 3's latency samples — the state
//     the journal cannot carry — are integer sums and sample lists
//     concatenated in shard order, so every list ends up in the record
//     order a single pass produces;
//   - everything else (calendar and periodicity series, Figure 7's
//     intervals across shard boundaries included, Figure 10's sizes,
//     per-file dedup state) is recomputed by replaying each shard's
//     journal, in record order, through the transitions a single pass
//     runs.
//
// TestB2Equivalence pins that down.

// B2Options configures AnalyzeB2.
type B2Options struct {
	StreamOptions
}

// blockGroup is one shard's worth of whole blocks: a contiguous block
// range and its total index record count, for presizing.
type blockGroup struct {
	lo, hi int // block index range [lo, hi)
	count  int64
}

// AnalyzeB2 computes the paper's full Report from an opened b2 trace:
// AccumulateB2Blocks over every block, then the Report. The result is
// byte-identical to AnalyzeStream over the same records at any worker
// count. Cancelling ctx aborts between block groups with ctx's error; it
// never changes results.
func AnalyzeB2(ctx context.Context, opts B2Options, f *trace.B2File) (*Report, error) {
	a, err := AccumulateB2Blocks(ctx, opts.StreamOptions, f, 0, f.NumBlocks())
	if err != nil {
		return nil, err
	}
	return a.Report(), nil
}

// AccumulateB2Blocks analyses exactly blocks [lo, hi) of f — the
// distributed shard path, and AccumulateStream's over the whole file —
// returning the merged accumulator, state-identical to the slice path
// over the same records. Block ranges are an exact partition of the
// record sequence (unlike time windows, which cannot split two records
// sharing a timestamp across blocks), so analysing each range of a
// contiguous partition with Options.Journal set and merging the
// snapshots in range order reproduces the single-process analysis
// byte-for-byte.
//
// The range's shard groups fan over the pool, each worker decoding its
// groups' blocks with a block decoder of its own over the run's one
// shared path table, and the pool's merger folds the Partials in group
// order into a master anchored at the calendar origin resolved here,
// once, which also cuts the groups. The master borrows that table (see
// FoldPartials), so each distinct path is copied into a string once per
// run and hashed into no second table.
// Decode and fold (a journal replay) overlap, and a failed block fails
// the run and stops dispatch: at most Workers+1 groups past the last
// folded one are ever decoded.
func AccumulateB2Blocks(ctx context.Context, opts StreamOptions, f *trace.B2File, lo, hi int) (*Analysis, error) {
	if lo < 0 || hi > f.NumBlocks() || lo > hi {
		return nil, fmt.Errorf("core: block range [%d, %d) outside [0, %d)", lo, hi, f.NumBlocks())
	}
	if opts.ShardDuration <= 0 {
		opts.ShardDuration = DefaultShardDuration
	}
	if lo >= hi {
		return New(opts.Options), nil
	}
	if opts.Start.IsZero() {
		// A block's base IS its first record's start.
		opts.Start = f.Meta(lo).Base.Truncate(24 * time.Hour)
	}
	groups := b2Groups(opts, f, lo, hi)
	master := New(opts.Options)
	// Reserve the replay's state once, from the index, for every group's
	// records reaching the range's last block: each fold's own reserve
	// then finds the room there. The index does not split the records by
	// op or name their files, so each op gets them all and the files
	// grow fold by fold.
	records := 0
	for _, g := range groups {
		records += int(g.count)
	}
	master.reserve(records, [2]int{records, records}, 0, hoursThrough(f.Meta(hi-1).End.UnixNano(), opts.Start))
	table := trace.NewSharedTable()
	err := pool.Run(ctx, opts.Workers, pool.Indices(len(groups)),
		func() func(int) (*Partial, error) {
			w := &b2Worker{opts: opts.Options, f: f, d: f.NewBlockDecoder(table)}
			return func(i int) (*Partial, error) { return w.accumulate(groups[i]) }
		},
		func(sh *Partial) error { return master.FoldPartials([]*Partial{sh}) })
	if err != nil {
		return nil, err
	}
	return master, nil
}

// B2TaskRanges cuts a b2 file's blocks into contiguous shard-width
// ranges [lo, hi) for distribution — the same calendar-aligned grouping
// AccumulateB2Blocks fans over its local pool, computed from index
// metadata alone. Concatenated, the ranges cover every block exactly once.
func B2TaskRanges(f *trace.B2File, shard time.Duration) [][2]int {
	if shard <= 0 {
		shard = DefaultShardDuration
	}
	n := f.NumBlocks()
	if n == 0 {
		return nil
	}
	opts := StreamOptions{ShardDuration: shard}
	opts.Start = f.Meta(0).Base.Truncate(24 * time.Hour)
	groups := b2Groups(opts, f, 0, n)
	out := make([][2]int, len(groups))
	for i, g := range groups {
		out[i] = [2]int{g.lo, g.hi}
	}
	return out
}

// shardIndex places a record time in its time partition.
func shardIndex(origin time.Time, d time.Duration, at time.Time) int64 {
	off := at.Sub(origin)
	idx := int64(off / d)
	if off < 0 && off%d != 0 {
		idx-- // floor division for blocks before the origin
	}
	return idx
}

// b2Groups cuts blocks [lo, hi) into contiguous shard groups: a new
// group starts whenever a block's base time crosses into a new shard.
// Pure index arithmetic — nothing is decoded.
func b2Groups(opts StreamOptions, f *trace.B2File, lo, hi int) []blockGroup {
	var groups []blockGroup
	curShard := int64(0)
	for i := lo; i < hi; i++ {
		m := f.Meta(i)
		s := shardIndex(opts.Start, opts.ShardDuration, m.Base)
		if len(groups) == 0 || s != curShard {
			groups = append(groups, blockGroup{lo: i, hi: i + 1, count: m.Count})
			curShard = s
			continue
		}
		g := &groups[len(groups)-1]
		g.hi = i + 1
		g.count += m.Count
	}
	return groups
}

// b2Worker is one shard worker's state: a block decoder over the run's
// shared path table, which every Partial of the run sits over — the
// decoder interns each block's dictionary into it and hands back
// FileIDs, so the worker never hashes a path — and a block-sized decode
// scratch.
type b2Worker struct {
	opts Options
	f    *trace.B2File
	d    *trace.B2BlockDecoder
	recs []trace.Record
	ids  []trace.FileID
}

// accumulate decodes one group block by block through the scratch,
// observing each block's records into a journal-only segment whose
// journal is sized from the index, and closes the segment with the
// prefix of the shared table it can reference — the path and hash views
// the fold reads while the workers go on interning.
func (w *b2Worker) accumulate(g blockGroup) (*Partial, error) {
	table := w.d.Table()
	p := NewSegment(w.opts, table.Interner)
	p.journal = make([]journalEntry, 0, g.count)
	for i := g.lo; i < g.hi; i++ {
		n := int(w.f.Meta(i).Count)
		if cap(w.recs) < n {
			w.recs, w.ids = make([]trace.Record, n), make([]trace.FileID, n)
		}
		if err := w.d.DecodeForAnalysis(i, w.recs[:n], w.ids[:n]); err != nil {
			return nil, err
		}
		w.observeBlock(p, w.recs[:n], w.ids[:n])
	}
	table.RLock()
	p.view, p.hview = table.Paths(), table.Hashes()
	table.RUnlock()
	return p, nil
}

// observeBlock feeds one decoded block's records to p under the
// FileIDs the decoder issued.
//
//filemig:hotpath
func (w *b2Worker) observeBlock(p *Partial, recs []trace.Record, ids []trace.FileID) {
	for k := range recs {
		p.Observe(&recs[k], ids[k])
	}
}
