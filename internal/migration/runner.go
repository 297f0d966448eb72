package migration

import (
	"context"
	"fmt"

	"filemig/internal/pool"
	"filemig/internal/units"
)

// The sweep runner: the paper's experiments replay the same reference
// string many times — once per capacity, policy, or STP exponent — and
// every replay is independent (a fresh Cache and a fresh Policy per job),
// so the sweeps fan out over the bounded worker pool. Results are written
// by job index, preserving input order regardless of completion order,
// and each job's replay stays single-threaded and deterministic.

// forEachJob runs fn(0..jobs-1) through pool.Run with nothing to
// deliver — each fn writes its own result by index — so it inherits the
// pool's contract: the lowest-indexed job's error at any worker count,
// no dispatch after a failure or a cancelled ctx (jobs already
// dispatched still run), workers <= 1 serial on the calling goroutine.
// This package never reads the host CPU count, so callers wanting one
// worker per CPU resolve the count explicitly (cmd/* use internal/host).
func forEachJob(ctx context.Context, jobs, workers int, fn func(i int) error) error {
	return pool.Run(ctx, workers, pool.Indices(jobs),
		func() func(int) (struct{}, error) {
			return func(i int) (struct{}, error) { return struct{}{}, fn(i) }
		}, nil)
}

// CapacitySweepWorkers is CapacitySweep with an explicit worker count
// (<= 1 runs serially).
func CapacitySweepWorkers(accs []Access, fractions []float64, mk func() Policy,
	workers int) ([]SweepPoint, error) {
	total := TotalReferencedBytes(accs)
	// Build every job's policy serially before fanning out: builders may
	// close over shared state (a seed counter, say) and are not required
	// to be goroutine-safe.
	policies := make([]Policy, len(fractions))
	for i := range policies {
		policies[i] = mk()
	}
	out := make([]SweepPoint, len(fractions))
	err := forEachJob(context.Background(), len(fractions), workers, func(i int) error {
		frac := fractions[i]
		cap := units.Bytes(float64(total) * frac)
		if cap <= 0 {
			cap = 1
		}
		c, err := NewCache(CacheConfig{Capacity: cap, Policy: policies[i]})
		if err != nil {
			return err
		}
		out[i] = SweepPoint{CapacityFraction: frac, Result: c.Replay(accs)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ComparePoliciesWorkers is ComparePolicies with an explicit worker
// count. Each policy instance is used by exactly one job, so stateful
// policies (Random, OPT) are safe as long as they are not shared between
// entries.
func ComparePoliciesWorkers(accs []Access, capacity units.Bytes, policies []Policy,
	workers int) ([]CacheResult, error) {
	out := make([]CacheResult, len(policies))
	err := forEachJob(context.Background(), len(policies), workers, func(i int) error {
		c, err := NewCache(CacheConfig{Capacity: capacity, Policy: policies[i]})
		if err != nil {
			return err
		}
		out[i] = c.Replay(accs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortByMissRatio(out)
	return out, nil
}

// PolicySweep is one policy's full capacity sweep within a
// MultiPolicySweep.
type PolicySweep struct {
	Policy string
	Points []SweepPoint
}

// MultiPolicySweep runs the full policies × fractions cross product
// through one worker pool and returns one sweep per builder, in input
// order — the capacity-planning experiment behind §2.3.
func MultiPolicySweep(accs []Access, fractions []float64, mks []func() Policy,
	workers int) ([]PolicySweep, error) {
	return MultiPolicySweepContext(context.Background(), accs, fractions, mks, workers)
}

// MultiPolicySweepContext is MultiPolicySweep with cancellation: a
// cancelled ctx stops dispatching cells (in-flight replays finish) and
// the first failing cell cancels its siblings the same way. Results are
// unchanged by ctx — cancellation only ever surfaces as an error.
func MultiPolicySweepContext(ctx context.Context, accs []Access, fractions []float64,
	mks []func() Policy, workers int) ([]PolicySweep, error) {
	total := TotalReferencedBytes(accs)
	out := make([]PolicySweep, len(mks))
	// One serial builder call per cell — builders need not be
	// goroutine-safe, every job needs a private policy instance, and a
	// stateful builder (OPT's FutureIndex, a seeded Random) is not cheap.
	policies := make([][]Policy, len(mks))
	for i, mk := range mks {
		p := mk()
		if p == nil {
			return nil, fmt.Errorf("migration: policy builder %d returned nil", i)
		}
		out[i] = PolicySweep{Policy: p.Name(), Points: make([]SweepPoint, len(fractions))}
		policies[i] = make([]Policy, len(fractions))
		for j := range fractions {
			if j > 0 { // the build that named the row is cell 0's policy
				p = mk()
			}
			policies[i][j] = p
		}
	}
	err := forEachJob(ctx, len(mks)*len(fractions), workers, func(job int) error {
		pi, fi := job/len(fractions), job%len(fractions)
		frac := fractions[fi]
		cap := units.Bytes(float64(total) * frac)
		if cap <= 0 {
			cap = 1
		}
		c, err := NewCache(CacheConfig{Capacity: cap, Policy: policies[pi][fi]})
		if err != nil {
			return err
		}
		out[pi].Points[fi] = SweepPoint{CapacityFraction: frac, Result: c.Replay(accs)}
		return nil
	})
	if err != nil {
		return nil, err
	}
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
	if capacity <= 0 {
		return nil, fmt.Errorf("migration: sweep capacity must be positive")
	}
	out := make([]ExponentPoint, len(ks))
	err := forEachJob(context.Background(), len(ks), workers, func(i int) error {
		c, err := NewCache(CacheConfig{Capacity: capacity, Policy: STP{K: ks[i]}})
		if err != nil {
			return err
		}
		out[i] = ExponentPoint{K: ks[i], Result: c.Replay(accs)}
		return nil
	})
	if err != nil {
		return nil, err
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
