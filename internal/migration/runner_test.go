package migration

import "testing"

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

func TestMultiPolicySweepMatchesPerPolicySweeps(t *testing.T) {
	accs := syntheticString(4000, 23)
	fractions := []float64{0.01, 0.05, 0.2}
	mks := []func() Policy{
		func() Policy { return STP{K: 1.4} },
		func() Policy { return LRU{} },
		func() Policy { return LargestFirst{} },
	}
	multi, err := MultiPolicySweep(accs, fractions, mks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != len(mks) {
		t.Fatalf("sweeps = %d, want %d", len(multi), len(mks))
	}
	for i, mk := range mks {
		if multi[i].Policy != mk().Name() {
			t.Errorf("sweep %d policy = %q, want %q (input order)", i, multi[i].Policy, mk().Name())
		}
		solo, err := CapacitySweepWorkers(accs, fractions, mk, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range solo {
			if multi[i].Points[j] != solo[j] {
				t.Errorf("%s at %v: multi %+v != solo %+v",
					multi[i].Policy, fractions[j], multi[i].Points[j], solo[j])
			}
		}
	}
}

// TestMultiPolicySweepBuildsOncePerCell pins the builder budget: one
// call per (policy, fraction) cell, none extra to read the row's name.
func TestMultiPolicySweepBuildsOncePerCell(t *testing.T) {
	accs := syntheticString(300, 26)
	fractions := []float64{0.01, 0.05, 0.2}
	calls := 0
	mk := func() Policy { calls++; return NewOPT(NewFutureIndex(accs)) }
	sweeps, err := MultiPolicySweep(accs, fractions, []func() Policy{mk}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(fractions) || sweeps[0].Policy != "OPT" {
		t.Errorf("builder ran %d times for %d cells (row %q), want one per cell",
			calls, len(fractions), sweeps[0].Policy)
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
	bad := []func() Policy{func() Policy { return nil }}
	if _, err := MultiPolicySweep(accs, []float64{0.1}, bad, 0); err == nil {
		t.Error("nil policy builder must error")
	}
}
