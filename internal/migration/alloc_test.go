package migration

import (
	"testing"
	"time"

	"filemig/internal/units"
)

// allocAccesses builds a reference string that forces steady eviction
// traffic at a small capacity: many files, revisits, and size variety.
func allocAccesses() []Access {
	base := time.Date(1990, time.October, 1, 0, 0, 0, 0, time.UTC)
	accs := make([]Access, 0, 4000)
	for i := 0; i < 4000; i++ {
		accs = append(accs, Access{
			Time:   base.Add(time.Duration(i) * time.Minute),
			FileID: (i * 7) % 257,
			Size:   units.Bytes(1000 + (i%13)*500),
			Write:  i%4 == 0,
			DirID:  (i * 7) % 31,
		})
	}
	return accs
}

// TestCacheReplaySteadyStateAllocs pins the free-list recycling: once a
// cache has been through the access string, replaying it again on the
// same instance allocates nothing per access — on the heap path (LRU),
// on the aged index (STP, SAAC, STP-adapt: the class table is built once
// and the list links live in the recycled slots), on the scan path
// (ScanOnly), on the victim path (ARC), and through the stateful
// observers' dense arenas (LRU-K, GDSF, cost) alike.
func TestCacheReplaySteadyStateAllocs(t *testing.T) {
	accs := allocAccesses()
	capacity := TotalReferencedBytes(accs) / 10
	for _, p := range []Policy{LRU{}, STP{K: 1.4}, SAAC{}, ScanOnly{P: STP{K: 1.4}}, NewARC(),
		NewLRUK(2), NewGDSF(), NewCostAware(DefaultTapeRateMBps), NewAdaptiveSTP()} {
		c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		c.Replay(accs) // warm: resident slice, heap, free list, scratch
		perRun := testing.AllocsPerRun(10, func() {
			c.Replay(accs)
		})
		if perRun > 1 {
			t.Errorf("%s: steady-state Replay allocates %v per run, want <= 1", p.Name(), perRun)
		}
	}
}
