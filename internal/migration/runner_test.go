package migration

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCapacitySweepParallelMatchesSerial(t *testing.T) {
	accs := syntheticString(5000, 21)
	fractions := []float64{0.004, 0.02, 0.08, 0.3}
	mk := func() Policy { return STP{K: 1.4} }
	serial, err := CapacitySweepWorkers(accs, fractions, mk, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CapacitySweepWorkers(accs, fractions, mk, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("fraction %v: serial %+v != parallel %+v",
				fractions[i], serial[i], parallel[i])
		}
	}
}

func TestComparePoliciesParallelMatchesSerial(t *testing.T) {
	accs := syntheticString(5000, 22)
	capacity := TotalReferencedBytes(accs) / 30
	mks := func() []Policy {
		return []Policy{STP{K: 1.4}, LRU{}, FIFO{}, SAAC{}, LargestFirst{},
			SmallestFirst{}, NewRandom(3), NewOPT(NewFutureIndex(accs))}
	}
	serial, err := ComparePoliciesWorkers(accs, capacity, mks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ComparePoliciesWorkers(accs, capacity, mks(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("rank %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
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
		got, err := replayList(context.Background(), build(), workers)
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
		if _, err := replayList(context.Background(), bad, workers); err == nil ||
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
		if _, err := replayList(ctx, cells, workers); !errors.Is(err, context.Canceled) {
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

func TestSTPExponentSweep(t *testing.T) {
	accs := syntheticString(4000, 24)
	capacity := TotalReferencedBytes(accs) / 30
	ks := []float64{0, 1.0, 1.4, 3.0}
	pts, err := STPExponentSweep(accs, capacity, ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ks) {
		t.Fatalf("points = %d, want %d", len(pts), len(ks))
	}
	for i, k := range ks {
		if pts[i].K != k {
			t.Errorf("point %d has K=%v, want %v (input order)", i, pts[i].K, k)
		}
		c, _ := NewCache(CacheConfig{Capacity: capacity, Policy: STP{K: k}})
		if want := c.Replay(accs); pts[i].Result != want {
			t.Errorf("K=%v: sweep %+v != direct replay %+v", k, pts[i].Result, want)
		}
	}
	best, ok := BestExponent(pts)
	if !ok {
		t.Fatal("BestExponent found nothing")
	}
	for _, p := range pts {
		if p.Result.MissRatio() < best.Result.MissRatio() {
			t.Errorf("best exponent %v (%v) beaten by %v (%v)",
				best.K, best.Result.MissRatio(), p.K, p.Result.MissRatio())
		}
	}
	if _, ok := BestExponent(nil); ok {
		t.Error("empty sweep must report no best exponent")
	}
}

func TestSweepErrorPropagation(t *testing.T) {
	accs := syntheticString(200, 25)
	if _, err := STPExponentSweepWorkers(accs, 0, []float64{1}, 0); err == nil {
		t.Error("non-positive capacity must error")
	}
	if _, err := ComparePoliciesWorkers(accs, 1, []Policy{nil}, 0); err == nil {
		t.Error("nil policy must error")
	}
	if _, err := CapacitySweepWorkers(accs, []float64{0.1}, func() Policy { return nil }, 0); err == nil {
		t.Error("nil policy builder must error")
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
		got, err := replayList(context.Background(), build(), workers)
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
