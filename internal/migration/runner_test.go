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

// TestReplayCells pins the one replay primitive every sweep and the
// experiment grid run through: results in cell order equal to a direct
// NewCache + Replay of each cell at any worker count, the pool's
// lowest-indexed error, and no dispatch under a cancelled context.
func TestReplayCells(t *testing.T) {
	accs := syntheticString(4000, 23)
	total := TotalReferencedBytes(accs)
	build := func() []ReplayCell {
		var cells []ReplayCell
		for _, frac := range []float64{0.01, 0.05, 0.2} {
			cap := FractionCapacity(total, frac)
			cells = append(cells,
				ReplayCell{Policy: STP{K: 1.4}, Capacity: cap},
				ReplayCell{Policy: NewRandom(3), Capacity: cap},
				ReplayCell{Policy: NewOPT(NewFutureIndex(accs)), Capacity: cap},
				ReplayCell{Policy: NewARC(), Capacity: cap})
		}
		return cells
	}
	var want []CacheResult
	for _, cell := range build() {
		c, err := NewCache(CacheConfig{Capacity: cell.Capacity, Policy: cell.Policy})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, c.Replay(accs))
	}
	for _, workers := range []int{0, 1, 4} {
		got, err := ReplayCells(context.Background(), accs, build(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results for %d cells", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d cell %d: %+v != direct replay %+v", workers, i, got[i], want[i])
			}
		}

		bad := build()[:4]
		bad[1].Policy = nil // "policy required" ...
		bad[3].Capacity = 0 // ... outranks the later "capacity must be positive"
		if _, err := ReplayCells(context.Background(), accs, bad, workers); err == nil ||
			!strings.Contains(err.Error(), "policy required") {
			t.Errorf("workers=%d: error %v, want the lowest-indexed cell's (nil policy)", workers, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var dispatched atomic.Int32
		cells := make([]ReplayCell, 8)
		for i := range cells {
			cells[i] = ReplayCell{Policy: nameCounter{n: &dispatched}, Capacity: total}
		}
		if _, err := ReplayCells(ctx, accs, cells, workers); !errors.Is(err, context.Canceled) {
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
