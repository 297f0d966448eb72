package migration

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// replayAll replays a fixed cell list through ReplayCells and returns
// the results in list order.
func replayAll(ctx context.Context, cells []ReplayCell, workers int) ([]CacheResult, error) {
	out := make([]CacheResult, len(cells))
	err := ReplayCells(ctx, workers, len(cells),
		func(i int) (ReplayCell, error) { return cells[i], nil },
		func(i int, r CacheResult) { out[i] = r })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sameAtWorkers replays the cells build returns at every worker count
// and fails unless each run equals the first, cell for cell.
func sameAtWorkers(t *testing.T, build func() []ReplayCell, workers ...int) {
	t.Helper()
	var first []CacheResult
	for _, w := range workers {
		got, err := replayAll(context.Background(), build(), w)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
			continue
		}
		for i := range first {
			if got[i] != first[i] {
				t.Errorf("cell %d: workers=%d %+v != workers=%d %+v", i, w, got[i], workers[0], first[i])
			}
		}
	}
}

// TestCapacitySweepParallelMatchesSerial: one policy over several
// capacities, the shape of migsim -sweep.
func TestCapacitySweepParallelMatchesSerial(t *testing.T) {
	accs := syntheticString(5000, 21)
	total := TotalReferencedBytes(accs)
	sameAtWorkers(t, func() []ReplayCell {
		var cells []ReplayCell
		for _, frac := range []float64{0.004, 0.02, 0.08, 0.3} {
			cells = append(cells, ReplayCell{Accs: accs, Policy: STP{K: 1.4}, Capacity: FractionCapacity(total, frac)})
		}
		return cells
	}, 1, 4)
}

// TestComparePoliciesParallelMatchesSerial: many policies, stateful
// ones included, at one capacity, the shape of migsim's comparison.
func TestComparePoliciesParallelMatchesSerial(t *testing.T) {
	accs := syntheticString(5000, 22)
	capacity := TotalReferencedBytes(accs) / 30
	sameAtWorkers(t, func() []ReplayCell {
		var cells []ReplayCell
		for _, p := range []Policy{STP{K: 1.4}, LRU{}, FIFO{}, SAAC{}, LargestFirst{},
			SmallestFirst{}, NewRandom(3), NewOPT(NewFutureIndex(accs))} {
			cells = append(cells, ReplayCell{Accs: accs, Policy: p, Capacity: capacity})
		}
		return cells
	}, 1, 6)
}

// nameCounter is an LRU that counts Name calls: NewCache reads the name
// of every policy it is handed, so the count is the number of cells
// that reached a worker.
type nameCounter struct {
	LRU
	n *atomic.Int32
}

func (p nameCounter) Name() string { p.n.Add(1); return p.LRU.Name() }

// freshReplays replays each cell on its own NewCache: the reference a
// pooled replay must match.
func freshReplays(t *testing.T, cells []ReplayCell) []CacheResult {
	t.Helper()
	var want []CacheResult
	for _, cell := range cells {
		c, err := NewCache(CacheConfig{Capacity: cell.Capacity, Policy: cell.Policy})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, c.Replay(cell.Accs))
	}
	return want
}

// TestReplayCells pins the one replay primitive every sweep and the
// experiment grid run through: results in pull order equal to a direct
// NewCache + Replay of each cell at any worker count, the pool's
// lowest-indexed error (of a cell or of the producer), and no dispatch
// under a cancelled context.
func TestReplayCells(t *testing.T) {
	accs := syntheticString(4000, 23)
	total := TotalReferencedBytes(accs)
	build := func() []ReplayCell {
		var cells []ReplayCell
		for _, frac := range []float64{0.01, 0.05, 0.2} {
			cap := FractionCapacity(total, frac)
			cells = append(cells,
				ReplayCell{Accs: accs, Policy: STP{K: 1.4}, Capacity: cap},
				ReplayCell{Accs: accs, Policy: NewRandom(3), Capacity: cap},
				ReplayCell{Accs: accs, Policy: NewOPT(NewFutureIndex(accs)), Capacity: cap},
				ReplayCell{Accs: accs, Policy: NewARC(), Capacity: cap})
		}
		return cells
	}
	want := freshReplays(t, build())
	for _, workers := range []int{0, 1, 4} {
		got, err := replayAll(context.Background(), build(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d cell %d: %+v != direct replay %+v", workers, i, got[i], want[i])
			}
		}

		bad := build()[:4]
		bad[1].Policy = nil // "policy required" ...
		bad[3].Capacity = 0 // ... outranks the later "capacity must be positive"
		if _, err := replayAll(context.Background(), bad, workers); err == nil ||
			!strings.Contains(err.Error(), "policy required") {
			t.Errorf("workers=%d: error %v, want the lowest-indexed cell's (nil policy)", workers, err)
		}
		errPull := errors.New("no cell 2")
		var pulls, replayed atomic.Int32
		err = ReplayCells(context.Background(), workers, 5,
			func(i int) (ReplayCell, error) {
				pulls.Add(1)
				if i == 2 {
					return ReplayCell{}, errPull
				}
				return ReplayCell{Accs: accs, Policy: LRU{}, Capacity: total}, nil
			}, func(int, CacheResult) { replayed.Add(1) })
		if !errors.Is(err, errPull) || pulls.Load() != 3 || replayed.Load() != 2 {
			t.Errorf("workers=%d: error %v after %d pulls and %d replays, want the producer's after 3 and 2",
				workers, err, pulls.Load(), replayed.Load())
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var dispatched atomic.Int32
		cells := make([]ReplayCell, 8)
		for i := range cells {
			cells[i] = ReplayCell{Accs: accs, Policy: nameCounter{n: &dispatched}, Capacity: total}
		}
		if _, err := replayAll(ctx, cells, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled ctx returned %v", workers, err)
		}
		if n := dispatched.Load(); n != 0 {
			t.Errorf("workers=%d: %d cells dispatched under a cancelled ctx", workers, n)
		}
	}
	if FractionCapacity(0, 0.5) != 1 || FractionCapacity(total, 0) != 1 || FractionCapacity(1000, 0.25) != 250 {
		t.Error("FractionCapacity: want total×frac, clamped up to one byte")
	}
}

// TestSTPExponentSweep: Smith's exponent ablation as cells — STP^k per
// exponent at one capacity — replays each exponent as a direct replay
// does, in input order, and K = 0 ranks by size alone, so it evicts as
// largest-first does.
func TestSTPExponentSweep(t *testing.T) {
	accs := syntheticString(4000, 24)
	capacity := TotalReferencedBytes(accs) / 30
	ks := []float64{0, 1.0, 1.4, 3.0}
	build := func() []ReplayCell {
		cells := []ReplayCell{{Accs: accs, Policy: LargestFirst{}, Capacity: capacity}}
		for _, k := range ks {
			cells = append(cells, ReplayCell{Accs: accs, Policy: STP{K: k}, Capacity: capacity})
		}
		return cells
	}
	want := freshReplays(t, build())
	for _, workers := range []int{0, 4} {
		got, err := replayAll(context.Background(), build(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d cell %d: %+v != direct replay %+v", workers, i, got[i], want[i])
			}
		}
	}
	lf, stp0 := want[0], want[1]
	if stp0.ReadMisses != lf.ReadMisses || stp0.Evictions != lf.Evictions {
		t.Errorf("STP^0 %+v does not evict as largest-first %+v", stp0, lf)
	}
}

func TestSweepErrorPropagation(t *testing.T) {
	accs := syntheticString(200, 25)
	for _, tc := range []struct {
		name string
		cell ReplayCell
	}{
		{"non-positive capacity", ReplayCell{Accs: accs, Policy: STP{K: 1}, Capacity: 0}},
		{"nil policy", ReplayCell{Accs: accs, Policy: nil, Capacity: 1}},
	} {
		cells := []ReplayCell{{Accs: accs, Policy: LRU{}, Capacity: 1000}, tc.cell}
		if _, err := replayAll(context.Background(), cells, 0); err == nil {
			t.Errorf("%s must error", tc.name)
		}
	}
}

// TestReplayCellsReuseMatchesFresh pins the per-worker cache reuse: a
// cell list that interleaves every victim path — keyed (LRU, FIFO, OPT,
// GDSF), aged (STP, SAAC, STP-adapt), victim (ARC), scan (Random,
// ScanOnly{STP}) — over two access strings with different file counts,
// so a worker's cache moves from a large table to a small one and back,
// must give every cell the result a fresh NewCache gives it. Run under
// -race it also checks that no reused state crosses workers.
func TestReplayCellsReuseMatchesFresh(t *testing.T) {
	large, small := syntheticString(2500, 41), allocAccesses()
	build := func() []ReplayCell {
		var cells []ReplayCell
		for round, accs := range [][]Access{large, small, large} {
			total := TotalReferencedBytes(accs)
			for _, mk := range []func() Policy{
				func() Policy { return LRU{} },
				func() Policy { return STP{K: 1.4} },
				func() Policy { return NewARC() },
				func() Policy { return NewRandom(int64(round)) },
				func() Policy { return FIFO{} },
				func() Policy { return SAAC{} },
				func() Policy { return ScanOnly{P: STP{K: 1.4}} },
				func() Policy { return NewOPT(NewFutureIndex(accs)) },
				func() Policy { return NewAdaptiveSTP() },
				func() Policy { return NewGDSF() },
			} {
				for _, frac := range []float64{0.02, 0.1} {
					cells = append(cells, ReplayCell{Accs: accs, Policy: mk(), Capacity: FractionCapacity(total, frac)})
				}
			}
		}
		return cells
	}
	want := freshReplays(t, build())
	for _, workers := range []int{1, 2, 4} {
		got, err := replayAll(context.Background(), build(), workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d cell %d (%s): reused cache %+v != fresh cache %+v",
					workers, i, want[i].Policy, got[i], want[i])
			}
		}
	}
}
