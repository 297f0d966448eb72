package migration

import (
	"testing"
	"time"

	"filemig/internal/units"
)

// modernPolicies builds a fresh instance of every post-1993 policy,
// keyed by name — all five carry per-replay state, so fresh instances
// are mandatory.
func modernPolicies() map[string]func(accs []Access) Policy {
	return map[string]func(accs []Access) Policy{
		"ARC":       func([]Access) Policy { return NewARC() },
		"LRU-2":     func([]Access) Policy { return NewLRUK(2) },
		"LRU-3":     func([]Access) Policy { return NewLRUK(3) },
		"GDSF":      func([]Access) Policy { return NewGDSF() },
		"cost:2":    func([]Access) Policy { return NewCostAware(DefaultTapeRateMBps) },
		"STP-adapt": func([]Access) Policy { return NewAdaptiveSTP() },
	}
}

// TestModernHeapMatchesScan extends the heap-vs-scan equivalence proof
// to the new keyed policies (LRU-K and the greedy-dual pair): forcing
// the scan path with ScanOnly — which passes the observer hooks
// through — must reproduce the heap path's results exactly. STP-adapt's
// rows compare its aged index against the same full scan. ARC
// is absent by design: its victims come from NextVictim on either
// path, so the comparison would be vacuous (TestARCListInvariants
// covers it).
func TestModernHeapMatchesScan(t *testing.T) {
	workloads := []struct {
		name string
		accs []Access
	}{
		{"locality", syntheticString(8000, 11)},
		{"churn", syntheticString(3000, 12)},
	}
	for _, w := range workloads {
		for _, div := range []int64{10, 40, 200} {
			capacity := TotalReferencedBytes(w.accs) / units.Bytes(div)
			for name, mk := range modernPolicies() {
				if name == "ARC" {
					continue
				}
				fast, err := NewCache(CacheConfig{Capacity: capacity, Policy: mk(w.accs)})
				if err != nil {
					t.Fatal(err)
				}
				slow, err := NewCache(CacheConfig{Capacity: capacity, Policy: ScanOnly{P: mk(w.accs)}})
				if err != nil {
					t.Fatal(err)
				}
				fastRes, slowRes := fast.Replay(w.accs), slow.Replay(w.accs)
				if fastRes != slowRes {
					t.Errorf("%s/%s at 1/%d capacity: heap and scan disagree:\n  heap: %+v\n  scan: %+v",
						w.name, name, div, fastRes, slowRes)
				}
			}
		}
	}
}

// TestModernReplayDeterministic replays each new policy twice on fresh
// instances and demands identical results — no hidden global state, no
// iteration-order dependence.
func TestModernReplayDeterministic(t *testing.T) {
	accs := syntheticString(6000, 5)
	capacity := TotalReferencedBytes(accs) / 25
	for name, mk := range modernPolicies() {
		var results [2]CacheResult
		for i := range results {
			c, err := NewCache(CacheConfig{Capacity: capacity, Policy: mk(accs)})
			if err != nil {
				t.Fatal(err)
			}
			results[i] = c.Replay(accs)
		}
		if results[0] != results[1] {
			t.Errorf("%s: two replays disagree:\n  %+v\n  %+v", name, results[0], results[1])
		}
		if results[0].Evictions == 0 {
			t.Errorf("%s: workload produced no evictions; the test is vacuous", name)
		}
	}
}

// TestLRUKOneIsLRU pins the LRU-K boundary case: with K=1 the backward
// K-distance is exactly the last reference time, so lruk:1 must replay
// byte-identically to plain LRU.
func TestLRUKOneIsLRU(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		accs := syntheticString(5000, seed)
		capacity := TotalReferencedBytes(accs) / 30
		lru, err := NewCache(CacheConfig{Capacity: capacity, Policy: LRU{}})
		if err != nil {
			t.Fatal(err)
		}
		lruk, err := NewCache(CacheConfig{Capacity: capacity, Policy: NewLRUK(1)})
		if err != nil {
			t.Fatal(err)
		}
		a, b := lru.Replay(accs), lruk.Replay(accs)
		b.Policy = a.Policy // names differ ("LRU" vs "LRU-1"); all else must not
		if a != b {
			t.Errorf("seed %d: LRU and LRU-1 disagree:\n  LRU:   %+v\n  LRU-1: %+v", seed, a, b)
		}
	}
}

// TestLRUKPrefersShortHistory pins the banding: a file without K
// recorded references evicts before any full-history file, and among
// short-history files the older last reference goes first.
func TestLRUKPrefersShortHistory(t *testing.T) {
	p := NewLRUK(2)
	full := cf(1, units.Bytes(units.MB), time.Hour, 2)
	onceOld := cf(2, units.Bytes(units.MB), 3*time.Hour, 1)
	onceNew := cf(3, units.Bytes(units.MB), time.Hour, 1)
	p.FileAccessed(full, full.LastRef-int64(time.Hour))
	p.FileAccessed(full, full.LastRef)
	p.FileAccessed(onceOld, onceOld.LastRef)
	p.FileAccessed(onceNew, onceNew.LastRef)
	if !(p.Key(onceOld) > p.Key(onceNew)) {
		t.Error("older single-reference file should evict before the newer one")
	}
	if !(p.Key(onceNew) > p.Key(full)) {
		t.Error("any single-reference file should evict before a full-history one")
	}
}

// TestARCListInvariants replays ARC and checks the structural
// invariants at the end: T1 and T2 together hold exactly the resident
// set (same bytes, same count), the ghost lists stay within the
// capacity bounds, and the target stays within [0, capacity]. Run at
// several pressures so both ghost lists see traffic.
func TestARCListInvariants(t *testing.T) {
	for _, div := range []int64{10, 40, 200} {
		accs := syntheticString(8000, 11)
		capacity := TotalReferencedBytes(accs) / units.Bytes(div)
		p := NewARC()
		c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		res := c.Replay(accs)
		if res.Evictions == 0 {
			t.Fatalf("1/%d capacity: no evictions; the test is vacuous", div)
		}
		if got := p.t1.bytes + p.t2.bytes; got != c.Used() {
			t.Errorf("1/%d capacity: T1+T2 hold %v bytes, cache holds %v", div, got, c.Used())
		}
		n := 0
		for id, e := range p.ent {
			resident := c.lookup(id) != nil
			inT := e.list == arcT1 || e.list == arcT2
			if inT != resident {
				t.Errorf("1/%d capacity: file %d: list %d vs resident %v", div, id, e.list, resident)
			}
			if inT {
				n++
			}
		}
		if n != c.Resident() {
			t.Errorf("1/%d capacity: %d files in T1∪T2, %d resident", div, n, c.Resident())
		}
		if p.target < 0 || p.target > capacity {
			t.Errorf("1/%d capacity: target %v outside [0, %v]", div, p.target, capacity)
		}
		var maxSize units.Bytes
		for _, a := range accs {
			if a.Size > maxSize {
				maxSize = a.Size
			}
		}
		if total := p.t1.bytes + p.t2.bytes + p.b1.bytes + p.b2.bytes; total > 2*capacity+maxSize {
			t.Errorf("1/%d capacity: lists hold %v bytes, bound ~%v", div, total, 2*capacity)
		}
	}
}

// TestARCAdaptsTarget drives a workload with a ghost-hit phase and
// checks the target actually moved off its initial zero — the
// adaptation machinery is alive.
func TestARCAdaptsTarget(t *testing.T) {
	accs := syntheticString(8000, 11)
	capacity := TotalReferencedBytes(accs) / 40
	p := NewARC()
	c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	c.Replay(accs)
	if p.target == 0 {
		t.Error("target never adapted: no recency-ghost hit in a re-referencing workload")
	}
}

// TestAdaptiveSTPConverges feeds a synthetic replay and checks the
// exponent left the prior and stayed inside the clamp — and that the
// trajectory is identical across two runs.
func TestAdaptiveSTPConverges(t *testing.T) {
	accs := syntheticString(8000, 11)
	capacity := TotalReferencedBytes(accs) / 40
	var ks [2]float64
	for i := range ks {
		p := NewAdaptiveSTP()
		c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		c.Replay(accs)
		ks[i] = p.Exponent()
	}
	if ks[0] != ks[1] {
		t.Errorf("exponent trajectory not deterministic: %v vs %v", ks[0], ks[1])
	}
	if ks[0] == stpAdaptPrior {
		t.Error("exponent never refitted from the prior")
	}
	if ks[0] < stpAdaptMinK || ks[0] > stpAdaptMaxK {
		t.Errorf("fitted exponent %v outside clamp [%v, %v]", ks[0], stpAdaptMinK, stpAdaptMaxK)
	}
}

// TestGreedyDualPriorities pins the greedy-dual arithmetic: frequency
// raises priority, size lowers it, and the cost-aware variant prices a
// big file's transfer time above a small one's at equal frequency.
func TestGreedyDualPriorities(t *testing.T) {
	now := n0
	g := NewGDSF()
	small := cf(1, units.Bytes(units.MB), time.Hour, 1)
	large := cf(2, units.Bytes(100*units.MB), time.Hour, 1)
	g.FileAccessed(small, now)
	g.FileAccessed(large, now)
	if !(g.Key(large) > g.Key(small)) {
		t.Error("GDSF: at equal frequency the larger file should evict first")
	}
	hot := cf(3, units.Bytes(100*units.MB), time.Hour, 5)
	g.FileAccessed(hot, now)
	if !(g.Key(large) > g.Key(hot)) {
		t.Error("GDSF: at equal size the less-referenced file should evict first")
	}

	// Cost-aware: the 75 s mount dwarfs transfer for small files, so at
	// equal refs the policy behaves like GDSF (big evicts first); but a
	// big file's total miss cost is strictly higher than a small one's.
	ca := NewCostAware(DefaultTapeRateMBps)
	if cs, cl := ca.missCost(small.Size), ca.missCost(large.Size); cl <= cs {
		t.Errorf("cost: 100 MB miss (%d µs) should cost more than 1 MB (%d µs)", cl, cs)
	}
	if ca.missCost(0) != 75_000_000 {
		t.Errorf("cost: zero-byte miss should cost exactly the mount latency, got %d µs", ca.missCost(0))
	}
}

// TestGreedyDualClockInflates replays GDSF under pressure and checks
// the inflation clock moved — aging is alive — while priorities stay
// exactly reproducible.
func TestGreedyDualClockInflates(t *testing.T) {
	accs := syntheticString(6000, 5)
	capacity := TotalReferencedBytes(accs) / 25
	p := NewGDSF()
	c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	c.Replay(accs)
	if p.clock == 0 {
		t.Error("inflation clock never advanced under eviction pressure")
	}
}

// TestModernPolicyNames pins the display names the experiment grammar
// and rendered tables rely on.
func TestModernPolicyNames(t *testing.T) {
	for want, mk := range map[string]Policy{
		"ARC":       NewARC(),
		"LRU-2":     NewLRUK(2),
		"LRU-16":    NewLRUK(16),
		"GDSF":      NewGDSF(),
		"cost:2":    NewCostAware(2),
		"cost:40":   NewCostAware(40),
		"STP-adapt": NewAdaptiveSTP(),
	} {
		if got := mk.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// TestModernConstructorsReject pins the loud-failure contracts.
func TestModernConstructorsReject(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewLRUK(0)", func() { NewLRUK(0) })
	mustPanic("NewCostAware(0)", func() { NewCostAware(0) })
	mustPanic("NewCostAware(-1)", func() { NewCostAware(-1) })
}
