package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"filemig/internal/pool"
	"filemig/internal/trace"
)

// The index-seek analysis path for b2 traces. Where AnalyzeStream must
// decode every record just to find its shard, a b2 file's trailing
// index already says how many records each block holds and what time
// range they cover — so shard cutting here is pure planning over index
// metadata: blocks are grouped into contiguous shard-width runs, blocks
// outside the analysis window are skipped without ever being read, and
// only the workers decode, each block exactly once. The merge machinery
// is shared with AnalyzeStream, and it is exact for ANY contiguous
// partition of the record sequence, so cutting at block granularity
// (rather than exact shard-boundary records) still renders
// byte-identically to the slice and stream paths; TestB2Equivalence
// pins that down, and the DecodeCount assertions prove the skipping.

// B2Options configures AnalyzeB2.
type B2Options struct {
	StreamOptions

	// From and To bound the analyzed records to [From, To); a zero time
	// leaves that side unbounded. Blocks whose index time range lies
	// entirely outside the window are never decoded. When From is set
	// and Start is not, resolving the calendar origin needs the first
	// in-window record, which costs one extra decode of the first
	// overlapping block; set Start explicitly to avoid it.
	From, To time.Time
}

// blockGroup is one shard's worth of whole blocks: a contiguous block
// range and its total index record count, for presizing.
type blockGroup struct {
	lo, hi int // block index range [lo, hi)
	count  int64
}

// AnalyzeB2 computes the paper's full Report from an opened b2 trace
// by fanning block groups over a bounded worker pool, decoding blocks
// in parallel. The result is byte-identical to AnalyzeStream over the
// same records at any worker count. Cancelling ctx aborts between
// block groups with ctx's error; it never changes results.
func AnalyzeB2(ctx context.Context, opts B2Options, f *trace.B2File) (*Report, error) {
	a, err := AccumulateB2(ctx, opts, f)
	if err != nil {
		return nil, err
	}
	return a.Report(), nil
}

// AccumulateB2 is AnalyzeB2 stopped one step short of the Report,
// returning the merged accumulator itself — state-identical to the
// slice path over the same records, like AccumulateStream.
func AccumulateB2(ctx context.Context, opts B2Options, f *trace.B2File) (*Analysis, error) {
	if opts.ShardDuration <= 0 {
		opts.ShardDuration = DefaultShardDuration
	}

	lo, hi := b2Window(opts, f)
	if lo >= hi {
		return New(opts.Options), nil
	}
	windowed := !opts.From.IsZero() || !opts.To.IsZero()

	// Resolve the calendar origin exactly as AccumulateStream would. The
	// index gives the first record's start directly (a block's base IS
	// its first record's start); only a windowed run with no explicit
	// Start must decode the first overlapping block to find the first
	// record inside the window.
	origin := opts.Start
	if origin.IsZero() {
		first := f.Meta(lo).Base
		if windowed {
			var err error
			if first, err = b2FirstInWindow(opts, f, lo); err != nil {
				return nil, err
			}
			if first.IsZero() {
				// The first overlapping block straddled the window without
				// any record inside it. Later blocks start at or after this
				// block's end (>= From) and before To, so the next block's
				// base — if any — is the first in-window record.
				lo++
				if lo >= hi {
					return New(opts.Options), nil
				}
				first = f.Meta(lo).Base
			}
		}
		origin = first.Truncate(24 * time.Hour)
	}
	opts.Start = origin
	return accumulateB2Range(ctx, opts, f, lo, hi)
}

// AccumulateB2Blocks analyses exactly blocks [lo, hi) of f — the
// distributed shard path. Block ranges are an exact partition of the
// record sequence (unlike time windows, which cannot split two records
// sharing a timestamp across blocks), so analysing each range of a
// contiguous partition with Options.Journal set and merging the
// snapshots in range order reproduces the single-process analysis
// byte-for-byte. The From/To window does not apply here and must be
// zero.
func AccumulateB2Blocks(ctx context.Context, opts B2Options, f *trace.B2File, lo, hi int) (*Analysis, error) {
	if !opts.From.IsZero() || !opts.To.IsZero() {
		return nil, errors.New("core: AccumulateB2Blocks takes a block range, not a From/To window")
	}
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
		opts.Start = f.Meta(lo).Base.Truncate(24 * time.Hour)
	}
	return accumulateB2Range(ctx, opts, f, lo, hi)
}

// B2TaskRanges cuts a b2 file's blocks into contiguous shard-width
// ranges [lo, hi) for distribution — the same calendar-aligned grouping
// AccumulateB2 fans over its local pool, computed from index metadata
// alone. Concatenated, the ranges cover every block exactly once.
func B2TaskRanges(f *trace.B2File, shard time.Duration) [][2]int {
	if shard <= 0 {
		shard = DefaultShardDuration
	}
	n := f.NumBlocks()
	if n == 0 {
		return nil
	}
	var opts B2Options
	opts.ShardDuration = shard
	opts.Start = f.Meta(0).Base.Truncate(24 * time.Hour)
	groups := b2Groups(opts, f, 0, n)
	out := make([][2]int, len(groups))
	for i, g := range groups {
		out[i] = [2]int{g.lo, g.hi}
	}
	return out
}

// accumulateB2Range fans the shard groups of blocks [lo, hi) (origin
// already resolved into opts.Start) over the pool, each worker decoding
// its groups' blocks with a private block decoder. A failed block fails
// the run and stops dispatch: at most Workers+1 groups past the last
// folded one are ever decoded.
func accumulateB2Range(ctx context.Context, opts B2Options, f *trace.B2File, lo, hi int) (*Analysis, error) {
	groups := b2Groups(opts, f, lo, hi)
	return foldShards(ctx, opts.StreamOptions, pool.Indices(len(groups)),
		func() func(int) (*Partial, error) {
			w := &b2Worker{opts: opts, f: f, d: f.NewBlockDecoder()}
			return func(i int) (*Partial, error) { return w.accumulate(groups[i]) }
		})
}

// b2Window returns the range of blocks overlapping [From, To) from the
// index alone.
func b2Window(opts B2Options, f *trace.B2File) (lo, hi int) {
	n := f.NumBlocks()
	lo, hi = 0, n
	if !opts.From.IsZero() {
		for lo < n && f.Meta(lo).End.Before(opts.From) {
			lo++
		}
	}
	if !opts.To.IsZero() {
		for hi > lo && !f.Meta(hi-1).Base.Before(opts.To) {
			hi--
		}
	}
	return lo, hi
}

// inB2Window reports whether a record time falls inside [From, To).
func inB2Window(opts *B2Options, at time.Time) bool {
	if !opts.From.IsZero() && at.Before(opts.From) {
		return false
	}
	if !opts.To.IsZero() && !at.Before(opts.To) {
		return false
	}
	return true
}

// b2FirstInWindow decodes block lo and returns the start of its first
// in-window record, or the zero time if the window skips the whole
// block.
func b2FirstInWindow(opts B2Options, f *trace.B2File, lo int) (time.Time, error) {
	recs, err := f.NewBlockDecoder().Decode(lo)
	if err != nil {
		return time.Time{}, err
	}
	for i := range recs {
		if inB2Window(&opts, recs[i].Start) {
			return recs[i].Start, nil
		}
	}
	return time.Time{}, nil
}

// b2Groups cuts blocks [lo, hi) into contiguous shard groups: a new
// group starts whenever a block's base time crosses into a new shard.
// Pure index arithmetic — nothing is decoded.
func b2Groups(opts B2Options, f *trace.B2File, lo, hi int) []blockGroup {
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

// b2Worker is one shard worker's state: a block decoder, whose path
// table every Partial the worker produces sits over — the decoder interns
// each block's dictionary into it and hands back FileIDs, so the worker
// never hashes a path — and a block-sized decode scratch.
type b2Worker struct {
	opts B2Options
	f    *trace.B2File
	d    *trace.B2BlockDecoder
	recs []trace.Record
	ids  []trace.FileID
}

// accumulate decodes one group block by block through the scratch,
// observing each block's in-window records into a Partial sized from the
// index, and closes the Partial with the prefix of the worker's table it
// can reference — the view the fold reads while this worker moves on.
func (w *b2Worker) accumulate(g blockGroup) (*Partial, error) {
	p := newShard(w.opts.Options, w.d.Table(), int(g.count), hoursThrough(w.opts.Start, w.f.Meta(g.hi-1).End))
	for i := g.lo; i < g.hi; i++ {
		n := int(w.f.Meta(i).Count)
		if cap(w.recs) < n {
			w.recs, w.ids = make([]trace.Record, n), make([]trace.FileID, n)
		}
		if err := w.d.DecodeInto(i, w.recs[:n], w.ids[:n]); err != nil {
			return nil, err
		}
		w.observeBlock(p, w.recs[:n], w.ids[:n])
	}
	p.view = w.d.Table().Paths()
	return p, nil
}

// observeBlock feeds one decoded block's in-window records to p under
// the FileIDs the decoder issued.
//
//filemig:hotpath
func (w *b2Worker) observeBlock(p *Partial, recs []trace.Record, ids []trace.FileID) {
	windowed := !w.opts.From.IsZero() || !w.opts.To.IsZero()
	for k := range recs {
		if windowed && !inB2Window(&w.opts, recs[k].Start) {
			continue
		}
		p.Observe(&recs[k], ids[k])
	}
}
