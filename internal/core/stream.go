package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"filemig/internal/trace"
)

// DefaultShardDuration is the time span of one b2 analysis shard when
// StreamOptions does not specify one: four weeks, long enough that
// shard-boundary bookkeeping is negligible, short enough that a two-year
// trace still fans out over two dozen workers.
const DefaultShardDuration = 28 * 24 * time.Hour

// StreamOptions configures AnalyzeStream and AccumulateStream. Options
// configures the analysis itself. ShardDuration and Workers are read only
// when the source is a b2 trace, whose block index AccumulateStream
// plans from (AccumulateB2Blocks): a sequential source has a serial
// decoder, so its analysis is one loop on the calling goroutine.
type StreamOptions struct {
	Options

	// ShardDuration is the width of each b2 block group's time
	// partition. Zero means DefaultShardDuration.
	ShardDuration time.Duration

	// Workers bounds the b2 worker pool. <= 1 runs every block group on
	// the calling goroutine; this package never reads the host CPU
	// count, so callers wanting one worker per CPU resolve the count
	// explicitly (the facade and cmd/* use internal/host). The merged
	// result is byte-identical for any worker count.
	Workers int
}

// ctxCheckEvery is how many records AccumulateStream adds between looks
// at its context.
const ctxCheckEvery = 4096

// AnalyzeStream computes the paper's full Report from a record stream.
// No record is retained, so peak memory is the per-file state, not the
// trace. The result is what New + AddAll + Report over the same records
// produces. Records must arrive in non-decreasing start order (the codec
// readers guarantee this). Cancelling ctx aborts with ctx's error; it
// never changes results.
func AnalyzeStream(ctx context.Context, opts StreamOptions, src trace.Stream) (*Report, error) {
	a, err := AccumulateStream(ctx, opts, src)
	if err != nil {
		return nil, err
	}
	return a.Report(), nil
}

// AccumulateStream is AnalyzeStream stopped one step short of the
// Report: it returns the accumulator itself. That is the handle snapshot
// producers need — run with Options.Journal set and hand the result to
// WriteSnapshot.
//
// It is the one analysis entry, and the source picks the mechanism. A
// b2 stream that trace.TakeB2File can take, one no record has been read
// from, is analysed through its block index by AccumulateB2Blocks over
// every block, on Workers workers in ShardDuration groups, and aborts
// between block groups. Any other stream runs Next → order check → Add
// on the calling goroutine and looks at ctx every ctxCheckEvery records.
func AccumulateStream(ctx context.Context, opts StreamOptions, src trace.Stream) (*Analysis, error) {
	if f := trace.TakeB2File(src); f != nil {
		return AccumulateB2Blocks(ctx, opts, f, 0, f.NumBlocks())
	}
	a := New(opts.Options)
	var prev time.Time
	for n := 1; ; n++ {
		r, err := src.Next()
		if err == io.EOF {
			return a, nil
		}
		if err != nil {
			return nil, err
		}
		if r.Start.Before(prev) {
			return nil, fmt.Errorf("core: stream out of order: %v after %v", r.Start, prev)
		}
		prev = r.Start
		a.Add(&r)
		if n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
}
