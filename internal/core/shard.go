package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"filemig/internal/pool"
	"filemig/internal/trace"
)

// The sharded streaming analysis path. AnalyzeStream consumes a
// trace.Stream instead of a []trace.Record: records are cut into
// time-partitioned shards, each shard is accumulated by an independent
// worker, and the per-shard partials are merged in shard order. Peak
// memory holds only the shards currently in flight (bounded by the
// worker count), never the whole trace. The merge is constructed to be
// byte-identical to the slice path (New + AddAll + Report):
//
//   - counts and byte totals are integer sums, which are associative;
//   - distribution samples are concatenated in shard order, so every
//     sample list ends up in exactly the record order the slice path
//     would have produced it in;
//   - Figure 7's boundary intervals (last record of shard k to first
//     record of shard k+1) are inserted between the shard-internal
//     interval lists during the merge;
//   - per-file dedup state, which depends only on each file's own access
//     history, is advanced by replaying every shard's reference journal
//     through the same addFileAccessID the slice path uses.
//
// Shards are core.Partial segments folded with Accumulator.Fold (see
// accum.go) — the same segment type the b2, snapshot, and daemon paths
// are built on.
//
// TestStreamEquivalence pins all of this down by comparing rendered
// output from both paths.

// DefaultShardDuration is the time span of one analysis shard when
// StreamOptions does not specify one: four weeks, long enough that
// shard-boundary bookkeeping is negligible, short enough that a two-year
// trace still fans out over two dozen workers.
const DefaultShardDuration = 28 * 24 * time.Hour

// StreamOptions configures AnalyzeStream.
type StreamOptions struct {
	Options

	// ShardDuration is the width of each time partition. Zero means
	// DefaultShardDuration.
	ShardDuration time.Duration

	// Workers bounds the shard worker pool. <= 1 runs every shard on
	// the calling goroutine; this package never reads the host CPU
	// count, so callers wanting one worker per CPU resolve the count
	// explicitly (the facade and cmd/* use internal/host). The merged
	// result is byte-identical for any worker count.
	Workers int
}

// AnalyzeStream computes the paper's full Report from a record stream by
// fanning time-partitioned shards over a bounded worker pool. The result
// is byte-identical to feeding the same records through New + AddAll +
// Report, but peak memory is proportional to a shard, not the trace, and
// the shards accumulate concurrently. Records must arrive in
// non-decreasing start order (the codec readers guarantee this).
// Cancelling ctx aborts between shards with ctx's error; it never
// changes results.
func AnalyzeStream(ctx context.Context, opts StreamOptions, src trace.Stream) (*Report, error) {
	a, err := AccumulateStream(ctx, opts, src)
	if err != nil {
		return nil, err
	}
	return a.Report(), nil
}

// AccumulateStream is AnalyzeStream stopped one step short of the
// Report: it returns the merged accumulator itself, state-identical to a
// slice-path New + AddAll over the same records. That is the handle
// snapshot producers need — run with Options.Journal set and hand the
// result to WriteSnapshot.
func AccumulateStream(ctx context.Context, opts StreamOptions, src trace.Stream) (*Analysis, error) {
	if opts.ShardDuration <= 0 {
		opts.ShardDuration = DefaultShardDuration
	}
	first, err := src.Next()
	if err == io.EOF {
		return New(opts.Options), nil
	}
	if err != nil {
		return nil, err
	}
	// Resolve the calendar origin exactly as Analysis.addShared would, so
	// every shard computes the same day/hour indices.
	origin := opts.Start
	if origin.IsZero() {
		origin = first.Start.Truncate(24 * time.Hour)
	}
	opts.Start = origin
	return foldShards(ctx, opts, shardCutter(opts, first, src),
		func() func([]trace.Record) (*Partial, error) {
			paths := trace.NewInterner() // the worker's: every shard it accumulates sits over it
			return func(batch []trace.Record) (*Partial, error) {
				return accumulateShard(opts.Options, paths, batch), nil
			}
		})
}

// foldShards is the pool run the stream and b2 paths share: next
// produces shard jobs on the calling goroutine, the workers turn them
// into Partials, and the pool's merger folds those in shard order into
// a master anchored at opts.Start (the origin, already resolved). The
// producer (decode-bound) and the fold (journal replay) overlap, and
// the pool's window keeps at most Workers+1 shards between produced
// and folded.
func foldShards[J any](ctx context.Context, opts StreamOptions, next func() (J, error),
	newWorker func() func(J) (*Partial, error)) (*Analysis, error) {
	master := New(opts.Options)
	master.start = opts.Start
	err := pool.Run(ctx, opts.Workers, next, newWorker,
		func(sh *Partial) error { master.Fold(sh); return nil })
	if err != nil {
		return nil, err
	}
	master.remaps = nil // fold-time state: the workers' tables die with the run
	return master, nil
}

// shardIndex places a record in its time partition.
func shardIndex(origin time.Time, d time.Duration, at time.Time) int64 {
	off := at.Sub(origin)
	idx := int64(off / d)
	if off < 0 && off%d != 0 {
		idx-- // floor division for records before the origin
	}
	return idx
}

// shardCutter returns the producer that cuts src into one shard's
// worth of records per call, then io.EOF. first is the record that
// opens the first shard (already read).
func shardCutter(opts StreamOptions, first trace.Record, src trace.Stream) func() ([]trace.Record, error) {
	done := false
	return func() ([]trace.Record, error) {
		if done {
			return nil, io.EOF
		}
		idx := shardIndex(opts.Start, opts.ShardDuration, first.Start)
		batch := []trace.Record{first}
		prev := first.Start
		for {
			r, err := src.Next()
			if err == io.EOF {
				done = true
				return batch, nil
			}
			if err != nil {
				return nil, err
			}
			if r.Start.Before(prev) {
				return nil, fmt.Errorf("core: stream out of order: %v after %v", r.Start, prev)
			}
			prev = r.Start
			if shardIndex(opts.Start, opts.ShardDuration, r.Start) != idx {
				first = r // opens the next shard
				return batch, nil
			}
			batch = append(batch, r)
		}
	}
}
