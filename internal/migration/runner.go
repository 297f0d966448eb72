package migration

import (
	"context"
	"sort"

	"filemig/internal/pool"
	"filemig/internal/units"
)

// The sweep runner: the paper's experiments replay reference strings
// many times — once per capacity, policy, or STP exponent — and every
// replay is independent (a reset Cache and a private Policy per cell),
// so every sweep is a stream of cells handed to ReplayCells.

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

// replayList replays a fixed cell list through ReplayCells and returns
// the results in list order.
func replayList(ctx context.Context, cells []ReplayCell, workers int) ([]CacheResult, error) {
	out := make([]CacheResult, len(cells))
	err := ReplayCells(ctx, workers, len(cells),
		func(i int) (ReplayCell, error) { return cells[i], nil },
		func(i int, r CacheResult) { out[i] = r })
	if err != nil {
		return nil, err
	}
	return out, nil
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

// CapacitySweepWorkers is CapacitySweep with an explicit worker count
// (<= 1 runs serially). The builder runs serially, once per fraction in
// input order, before the fan-out: builders may close over shared state
// (a seed counter, say) and are not required to be goroutine-safe.
func CapacitySweepWorkers(accs []Access, fractions []float64, mk func() Policy,
	workers int) ([]SweepPoint, error) {
	total := TotalReferencedBytes(accs)
	cells := make([]ReplayCell, len(fractions))
	for i, frac := range fractions {
		cells[i] = ReplayCell{Accs: accs, Policy: mk(), Capacity: FractionCapacity(total, frac)}
	}
	res, err := replayList(context.Background(), cells, workers)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(res))
	for i, r := range res {
		out[i] = SweepPoint{CapacityFraction: fractions[i], Result: r}
	}
	return out, nil
}

// ComparePoliciesWorkers is ComparePolicies with an explicit worker
// count. Each policy instance is used by exactly one cell, so stateful
// policies (Random, OPT) are safe as long as they are not shared between
// entries.
func ComparePoliciesWorkers(accs []Access, capacity units.Bytes, policies []Policy,
	workers int) ([]CacheResult, error) {
	cells := make([]ReplayCell, len(policies))
	for i, p := range policies {
		cells[i] = ReplayCell{Accs: accs, Policy: p, Capacity: capacity}
	}
	out, err := replayList(context.Background(), cells, workers)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].MissRatio() < out[j].MissRatio() })
	return out, nil
}

// ExponentPoint is one STP exponent's outcome in an exponent sweep.
type ExponentPoint struct {
	K      float64
	Result CacheResult
}

// STPExponentSweep replays the access string under STP^k for each
// exponent at the given capacity — Smith's ablation that singled out
// K=1.4. The replays run serially; use STPExponentSweepWorkers to fan
// out.
func STPExponentSweep(accs []Access, capacity units.Bytes, ks []float64) ([]ExponentPoint, error) {
	return STPExponentSweepWorkers(accs, capacity, ks, 0)
}

// STPExponentSweepWorkers is STPExponentSweep with an explicit worker
// count.
func STPExponentSweepWorkers(accs []Access, capacity units.Bytes, ks []float64,
	workers int) ([]ExponentPoint, error) {
	cells := make([]ReplayCell, len(ks))
	for i, k := range ks {
		cells[i] = ReplayCell{Accs: accs, Policy: STP{K: k}, Capacity: capacity}
	}
	res, err := replayList(context.Background(), cells, workers)
	if err != nil {
		return nil, err
	}
	out := make([]ExponentPoint, len(res))
	for i, r := range res {
		out[i] = ExponentPoint{K: ks[i], Result: r}
	}
	return out, nil
}

// BestExponent returns the exponent with the lowest read miss ratio
// (first such on ties, in input order).
func BestExponent(pts []ExponentPoint) (ExponentPoint, bool) {
	if len(pts) == 0 {
		return ExponentPoint{}, false
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Result.MissRatio() < best.Result.MissRatio() {
			best = p
		}
	}
	return best, true
}
