package migration

import (
	"testing"

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
