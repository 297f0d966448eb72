package migration

import (
	"context"
	"sort"

	"filemig/internal/pool"
	"filemig/internal/units"
)

// The sweep runner: the paper's experiments replay the same reference
// string many times — once per capacity, policy, or STP exponent — and
// every replay is independent (a fresh Cache and a private Policy per
// cell), so every sweep is a cell list handed to ReplayCells.

// ReplayCell is one replay of a reference string: a policy instance no
// other cell shares, and the cache size it runs at.
type ReplayCell struct {
	Policy   Policy
	Capacity units.Bytes
}

// ReplayCells replays accs once per cell through pool.Run and returns
// the results in cell order, whatever order the replays finish in; each
// replay is single-threaded and deterministic. It inherits the pool's
// contract: the lowest-indexed cell's error at any worker count, no
// dispatch after a failure or a cancelled ctx (cells already dispatched
// still run), workers <= 1 serial on the calling goroutine. This package
// never reads the host CPU count, so callers wanting one worker per CPU
// resolve the count explicitly (cmd/* use internal/host).
func ReplayCells(ctx context.Context, accs []Access, cells []ReplayCell, workers int) ([]CacheResult, error) {
	out := make([]CacheResult, len(cells))
	err := pool.Run(ctx, workers, pool.Indices(len(cells)),
		func() func(int) (struct{}, error) {
			return func(i int) (struct{}, error) {
				c, err := NewCache(CacheConfig{Capacity: cells[i].Capacity, Policy: cells[i].Policy})
				if err != nil {
					return struct{}{}, err
				}
				out[i] = c.Replay(accs)
				return struct{}{}, nil
			}
		}, nil)
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
		cells[i] = ReplayCell{Policy: mk(), Capacity: FractionCapacity(total, frac)}
	}
	res, err := ReplayCells(context.Background(), accs, cells, workers)
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
		cells[i] = ReplayCell{Policy: p, Capacity: capacity}
	}
	out, err := ReplayCells(context.Background(), accs, cells, workers)
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
		cells[i] = ReplayCell{Policy: STP{K: k}, Capacity: capacity}
	}
	res, err := ReplayCells(context.Background(), accs, cells, workers)
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
