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

// TestReplayReservesPolicyTables pins the ID-bound handoff: Replay tells
// every policy with FileID-indexed tables (ARC, LRU-K, GDSF, cost,
// STP-adapt) the string's ID bound before the first access — through
// ScanOnly too — so a fresh policy makes each table once, at its final
// length. A table left to grow as the replay meets new IDs would
// reallocate about nine times on the way to this string's 257 files.
func TestReplayReservesPolicyTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	accs := allocAccesses()
	capacity := TotalReferencedBytes(accs) / 10
	for _, mk := range []func() Policy{
		func() Policy { return NewARC() },
		func() Policy { return NewLRUK(3) },
		func() Policy { return NewGDSF() },
		func() Policy { return NewCostAware(DefaultTapeRateMBps) },
		func() Policy { return NewAdaptiveSTP() },
	} {
		for _, scan := range []bool{false, true} {
			build := mk
			if scan {
				build = func() Policy { return ScanOnly{P: mk()} }
			}
			c := &Cache{}
			replay := func() {
				if err := c.reset(CacheConfig{Capacity: capacity, Policy: build()}); err != nil {
					t.Fatal(err)
				}
				c.Replay(accs)
			}
			replay() // warm the cache's own tables
			// What building the policy and naming it (reset does) costs
			// on its own, so the difference is the tables: LRU-K has two.
			own := testing.AllocsPerRun(5, func() { _ = build().Name() })
			if tables := testing.AllocsPerRun(5, replay) - own; tables > 2 {
				t.Errorf("%s (scan path %v): a fresh policy's replay makes %v allocations beyond the policy's own, want <= 2",
					build().Name(), scan, tables)
			}
		}
	}
}
