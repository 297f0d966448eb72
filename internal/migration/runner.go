package migration

import (
	"context"

	"filemig/internal/pool"
	"filemig/internal/units"
)

// The sweep runner: the paper's experiments replay reference strings
// many times — once per capacity, policy, or STP exponent — and every
// replay is independent (a reset Cache and a private Policy per cell),
// so every grid — the experiment engine's, under migexp and migsim — is
// a stream of cells handed to ReplayCells.

// ReplayCell is one replay of a reference string: the string itself, a
// policy instance no other cell shares, and the cache size it runs at.
type ReplayCell struct {
	Accs     []Access
	Policy   Policy
	Capacity units.Bytes
}

// ReplayCells replays n cells through pool.Run and hands each result
// to done with its cell index, on the goroutine that ran it; each replay
// is single-threaded and deterministic. The cells are pulled from cell,
// called with 0..n-1 in order on the calling goroutine as workers free
// up, so a caller can build each cell — and load what it replays — just
// in time. Every worker keeps one Cache and resets it between cells, so
// its tables grow once per worker, not once per cell. It inherits the
// pool's contract: the lowest-indexed failure (of cell or of a replay)
// at any worker count, no pull after a failure or a cancelled ctx (cells
// already pulled still run), workers <= 1 serial on the calling
// goroutine. This package never reads the host CPU count, so callers
// wanting one worker per CPU resolve the count explicitly (cmd/* use
// internal/host).
func ReplayCells(ctx context.Context, workers, n int, cell func(i int) (ReplayCell, error),
	done func(i int, r CacheResult)) error {
	type job struct {
		i    int
		cell ReplayCell
	}
	indices := pool.Indices(n)
	return pool.Run(ctx, workers,
		func() (job, error) {
			i, err := indices()
			if err != nil {
				return job{}, err
			}
			c, err := cell(i)
			return job{i, c}, err
		},
		func() func(job) (struct{}, error) {
			c := &Cache{}
			return func(j job) (struct{}, error) {
				if err := c.reset(CacheConfig{Capacity: j.cell.Capacity, Policy: j.cell.Policy}); err != nil {
					return struct{}{}, err
				}
				done(j.i, c.Replay(j.cell.Accs))
				return struct{}{}, nil
			}
		}, nil)
}

// FractionCapacity is the cache size a capacity fraction of total
// referenced bytes stands for, clamped so a degenerate fraction still
// yields a valid (one-byte) cache.
func FractionCapacity(total units.Bytes, frac float64) units.Bytes {
	if c := units.Bytes(float64(total) * frac); c > 0 {
		return c
	}
	return 1
}
