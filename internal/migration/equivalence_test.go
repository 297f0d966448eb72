package migration

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"filemig/internal/units"
)

// shippedPolicies builds a fresh instance of every policy the package
// ships, keyed by name. Fresh instances matter: Random and OPT carry
// per-replay state.
func shippedPolicies() map[string]func(accs []Access) Policy {
	return map[string]func(accs []Access) Policy{
		"STP^1.4":        func([]Access) Policy { return STP{K: 1.4} },
		"STP^1":          func([]Access) Policy { return STP{K: 1.0} },
		"LRU":            func([]Access) Policy { return LRU{} },
		"FIFO":           func([]Access) Policy { return FIFO{} },
		"largest-first":  func([]Access) Policy { return LargestFirst{} },
		"smallest-first": func([]Access) Policy { return SmallestFirst{} },
		"SAAC":           func([]Access) Policy { return SAAC{} },
		"random":         func([]Access) Policy { return NewRandom(42) },
		"OPT":            func(accs []Access) Policy { return NewOPT(NewFutureIndex(accs)) },
	}
}

// TestHeapMatchesScanVictimSelection proves the fast victim paths safe:
// for every shipped policy, replaying a generated workload on the path
// the cache picks by default — the indexed eviction heap for keyed
// policies, the aged index for STP and SAAC — produces exactly the same
// result, hence the same victim sequence, as forcing the deterministic
// full scan with ScanOnly. Random is scan-path on both sides, so its row
// pins determinism instead. (TestAgedIndexMatchesScan is the step-by-
// step, adversarial-input version for the aged index.)
func TestHeapMatchesScanVictimSelection(t *testing.T) {
	workloads := []struct {
		name string
		accs []Access
	}{
		{"locality", syntheticString(8000, 11)},
		{"churn", syntheticString(3000, 12)},
	}
	for _, w := range workloads {
		for _, div := range []int64{10, 40, 200} { // generous to starved caches
			capacity := TotalReferencedBytes(w.accs) / units.Bytes(div)
			for name, mk := range shippedPolicies() {
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
				if fast.Used() != slow.Used() || fast.Resident() != slow.Resident() {
					t.Errorf("%s/%s: final occupancy differs: %v/%d vs %v/%d",
						w.name, name, fast.Used(), fast.Resident(), slow.Used(), slow.Resident())
				}
			}
		}
	}
}

// keyedPolicies builds a fresh instance of every shipped policy the
// keyed heap serves. OPT looks ahead in accs, which NewFutureIndex takes
// time-sorted, so its entry asks for a sorted string.
var keyedPolicies = []struct {
	mk     func(accs []Access) Policy
	sorted bool
}{
	{func([]Access) Policy { return LRU{} }, false},
	{func([]Access) Policy { return FIFO{} }, false},
	{func([]Access) Policy { return LargestFirst{} }, false},
	{func([]Access) Policy { return SmallestFirst{} }, false},
	{func(accs []Access) Policy { return NewOPT(NewFutureIndex(accs)) }, true},
	{func([]Access) Policy { return NewLRUK(2) }, false},
	{func([]Access) Policy { return NewGDSF() }, false},
	{func([]Access) Policy { return NewCostAware(DefaultTapeRateMBps) }, false},
}

// FuzzKeyedHeapMatchesScan is FuzzAgedIndexMatchesScan for the keyed
// heap: the fuzzer writes the access string (whole-second ticks, within
// timeKey's precision), the first three bytes choose policy, capacity
// and prefetch, and every step must leave the heap path where ScanOnly
// leaves the full scan. The string keeps agedAccesses' same-instant
// bursts; OPT's alone is stable-sorted by time, as its index requires.
func FuzzKeyedHeapMatchesScan(f *testing.F) {
	f.Add([]byte("\x00\x00\x00abcabdabeabf"))
	f.Add([]byte{4, 1, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 6, 5, 0, 0, 6, 0, 0, 7, 0, 15})
	seed := make([]byte, 3+3*300)
	rand.New(rand.NewSource(1993)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		if len(data) > 3+3*2000 {
			data = data[:3+3*2000]
		}
		kp := keyedPolicies[int(data[0])%len(keyedPolicies)]
		accs := agedAccesses(data[3:], 64, time.Second)
		if kp.sorted {
			slices.SortStableFunc(accs, func(a, b Access) int { return a.Time.Compare(b.Time) })
		}
		mk := func() Policy { return kp.mk(accs) }
		if c, err := NewCache(CacheConfig{Capacity: 1, Policy: mk()}); err != nil || c.keyed == nil {
			t.Fatalf("%s is not on the keyed heap (err %v)", mk().Name(), err)
		}
		capacity := TotalReferencedBytes(accs)/[]units.Bytes{2, 7, 40}[data[1]%3] + 1
		replayLockstep(t, accs, mk, capacity, data[2]&1 == 1)
	})
}
