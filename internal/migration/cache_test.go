package migration

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/trace"
	"filemig/internal/units"
)

func acc(minute int, file int, size units.Bytes, write bool) Access {
	return Access{
		Time:   t0.Add(time.Duration(minute) * time.Minute),
		FileID: file, Size: size, Write: write,
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, err := NewCache(CacheConfig{Capacity: units.Bytes(10 * units.MB), Policy: LRU{}})
	if err != nil {
		t.Fatal(err)
	}
	res := c.Replay([]Access{
		acc(0, 1, units.Bytes(4*units.MB), true),  // write insert
		acc(1, 1, units.Bytes(4*units.MB), false), // read hit
		acc(2, 2, units.Bytes(4*units.MB), false), // read miss, insert
		acc(3, 2, units.Bytes(4*units.MB), false), // read hit
	})
	if res.Reads != 3 || res.ReadHits != 2 || res.ReadMisses != 1 {
		t.Errorf("reads/hits/misses = %d/%d/%d", res.Reads, res.ReadHits, res.ReadMisses)
	}
	if res.WriteInserts != 1 {
		t.Errorf("writes = %d", res.WriteInserts)
	}
	if got := res.MissRatio(); got != 1.0/3 {
		t.Errorf("miss ratio = %v", got)
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c, _ := NewCache(CacheConfig{Capacity: units.Bytes(10 * units.MB), Policy: LRU{}})
	c.Step(acc(0, 1, units.Bytes(4*units.MB), false))
	c.Step(acc(1, 2, units.Bytes(4*units.MB), false))
	c.Step(acc(2, 1, units.Bytes(4*units.MB), false)) // touch 1; 2 is now LRU
	c.Step(acc(3, 3, units.Bytes(4*units.MB), false)) // evicts 2
	c.Step(acc(4, 1, units.Bytes(4*units.MB), false)) // still resident: hit
	c.Step(acc(5, 2, units.Bytes(4*units.MB), false)) // was evicted: miss
	res := c.Result()
	if res.Evictions < 1 {
		t.Error("expected at least one eviction")
	}
	// Reads: 6 total; misses at t0(1), t1(2), t3(3), t5(2) = 4.
	if res.ReadMisses != 4 || res.ReadHits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/4", res.ReadHits, res.ReadMisses)
	}
}

func TestCacheCapacityInvariant(t *testing.T) {
	cap := units.Bytes(20 * units.MB)
	c, _ := NewCache(CacheConfig{Capacity: cap, Policy: STP{K: 1.4}})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		size := units.Bytes(rng.Int63n(8*units.MB) + 1)
		c.Step(acc(i, rng.Intn(300), size, rng.Intn(3) == 0))
		if c.Used() > cap {
			t.Fatalf("occupancy %v exceeds capacity %v at step %d", c.Used(), cap, i)
		}
	}
	if c.Resident() == 0 {
		t.Error("cache should retain files")
	}
}

func TestFileLargerThanCacheStreamsThrough(t *testing.T) {
	c, _ := NewCache(CacheConfig{Capacity: units.Bytes(units.MB), Policy: LRU{}})
	c.Step(acc(0, 1, units.Bytes(5*units.MB), false))
	c.Step(acc(1, 1, units.Bytes(5*units.MB), false))
	res := c.Result()
	if res.ReadMisses != 2 {
		t.Errorf("oversized file should miss every time, got %d misses", res.ReadMisses)
	}
	if c.Used() != 0 {
		t.Errorf("oversized file must not occupy the cache: used=%v", c.Used())
	}
}

func TestRewriteAdjustsSize(t *testing.T) {
	c, _ := NewCache(CacheConfig{Capacity: units.Bytes(10 * units.MB), Policy: LRU{}})
	c.Step(acc(0, 1, units.Bytes(2*units.MB), true))
	c.Step(acc(1, 1, units.Bytes(6*units.MB), true)) // grew
	if c.Used() != units.Bytes(6*units.MB) {
		t.Errorf("used = %v, want 6 MB after rewrite", c.Used())
	}
	c.Step(acc(2, 1, units.Bytes(units.MB), true)) // shrank
	if c.Used() != units.Bytes(units.MB) {
		t.Errorf("used = %v, want 1 MB", c.Used())
	}
}

func TestRewriteGrowthBeyondCapacityStreamsThrough(t *testing.T) {
	// Regression: a rewrite that grows a resident file beyond the whole
	// cache used to leave the cache permanently over-full, because the
	// grown file was protected from eviction. It must stream through.
	c, _ := NewCache(CacheConfig{Capacity: units.Bytes(10 * units.MB), Policy: LRU{}})
	c.Step(acc(0, 1, units.Bytes(2*units.MB), true))
	c.Step(acc(1, 2, units.Bytes(3*units.MB), true))
	c.Step(acc(2, 1, units.Bytes(12*units.MB), true)) // grows past capacity
	if c.Used() > c.cfg.Capacity {
		t.Fatalf("cache over-full after growth: used %v > capacity %v", c.Used(), c.cfg.Capacity)
	}
	if c.Used() != units.Bytes(3*units.MB) || c.Resident() != 1 {
		t.Errorf("used/resident = %v/%d, want 3 MB/1 (grown file gone)", c.Used(), c.Resident())
	}
	res := c.Result()
	if res.StreamThroughs != 1 {
		t.Errorf("stream-throughs = %d, want 1", res.StreamThroughs)
	}
	if res.Evictions != 0 {
		t.Errorf("evictions = %d; streaming through is not a policy eviction", res.Evictions)
	}
	c.Step(acc(3, 1, units.Bytes(12*units.MB), false))
	if got := c.Result(); got.ReadMisses != 1 || got.StreamThroughs != 2 {
		t.Errorf("oversized file must keep missing: misses=%d streamThroughs=%d",
			got.ReadMisses, got.StreamThroughs)
	}
}

func TestCapacityInvariantUnderOversizedRewrites(t *testing.T) {
	// Occupancy never exceeds capacity even when rewrites grow files past
	// it, under both heap (LRU) and scan (STP) victim selection.
	for _, p := range []Policy{LRU{}, STP{K: 1.4}} {
		cap := units.Bytes(20 * units.MB)
		c, _ := NewCache(CacheConfig{Capacity: cap, Policy: p})
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 3000; i++ {
			size := units.Bytes(rng.Int63n(30*units.MB) + 1) // up to 1.5× capacity
			c.Step(acc(i, rng.Intn(100), size, rng.Intn(2) == 0))
			if c.Used() > cap {
				t.Fatalf("%s: occupancy %v exceeds capacity %v at step %d",
					p.Name(), c.Used(), cap, i)
			}
			if len(c.order) != 0 && len(c.order) != c.Resident() {
				t.Fatalf("%s: heap has %d entries for %d residents at step %d",
					p.Name(), len(c.order), c.Resident(), i)
			}
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	// Repeated replays of the same string must produce byte-identical
	// results for every policy — including Random (per seed) and the
	// scan-fallback policies whose ties used to follow map order.
	accs := syntheticString(6000, 7)
	capacity := TotalReferencedBytes(accs) / 40
	for name, mk := range shippedPolicies() {
		var first CacheResult
		for run := 0; run < 5; run++ {
			c, err := NewCache(CacheConfig{Capacity: capacity, Policy: mk(accs)})
			if err != nil {
				t.Fatal(err)
			}
			res := c.Replay(accs)
			if run == 0 {
				first = res
				continue
			}
			if res != first {
				t.Fatalf("%s: run %d diverged:\n  first: %+v\n  later: %+v", name, run, first, res)
			}
		}
	}
}

func TestNewCacheErrors(t *testing.T) {
	if _, err := NewCache(CacheConfig{Capacity: 0, Policy: LRU{}}); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := NewCache(CacheConfig{Capacity: 1}); err == nil {
		t.Error("nil policy should fail")
	}
}

// syntheticString builds a reusable access string with locality: a hot set
// rereferenced often plus a cold long tail, sized so policies separate.
func syntheticString(n int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	var accs []Access
	minute := 0
	for i := 0; i < n; i++ {
		minute += rng.Intn(30) + 1
		var file int
		if rng.Float64() < 0.6 {
			file = rng.Intn(20) // hot set
		} else {
			file = 20 + rng.Intn(2000) // cold tail
		}
		size := units.Bytes((file%40)*int(units.MB)/4 + int(units.MB))
		accs = append(accs, acc(minute, file, size, rng.Float64() < 0.3))
	}
	return accs
}

func TestOPTBeatsOnlinePolicies(t *testing.T) {
	accs := syntheticString(8000, 2)
	capacity := TotalReferencedBytes(accs) / 20
	opt, err := NewCache(CacheConfig{Capacity: capacity, Policy: NewOPT(NewFutureIndex(accs))})
	if err != nil {
		t.Fatal(err)
	}
	optRes := opt.Replay(accs)
	for _, p := range []Policy{LRU{}, STP{K: 1.4}, FIFO{}, LargestFirst{}} {
		c, _ := NewCache(CacheConfig{Capacity: capacity, Policy: p})
		res := c.Replay(accs)
		if optRes.MissRatio() > res.MissRatio()+0.02 {
			t.Errorf("OPT (%v) should not lose to %s (%v)",
				optRes.MissRatio(), p.Name(), res.MissRatio())
		}
	}
}

func TestSTPCompetitiveWithLRU(t *testing.T) {
	// §2.3: STP was the best online policy in both Smith's and Lawrie's
	// studies, "though only by a slim margin". Require STP^1.4 to be at
	// least close to LRU on byte miss ratio and no disaster on miss ratio.
	accs := syntheticString(8000, 3)
	capacity := TotalReferencedBytes(accs) / 20
	stp, _ := NewCache(CacheConfig{Capacity: capacity, Policy: STP{K: 1.4}})
	lru, _ := NewCache(CacheConfig{Capacity: capacity, Policy: LRU{}})
	stpRes, lruRes := stp.Replay(accs), lru.Replay(accs)
	if stpRes.MissRatio() > lruRes.MissRatio()*1.25 {
		t.Errorf("STP miss ratio %v far above LRU %v", stpRes.MissRatio(), lruRes.MissRatio())
	}
}

func TestCapacitySweepMonotone(t *testing.T) {
	accs := syntheticString(6000, 5)
	total := TotalReferencedBytes(accs)
	var cells []ReplayCell
	for _, frac := range []float64{0.005, 0.02, 0.10, 0.5} {
		cells = append(cells, ReplayCell{Accs: accs, Policy: STP{K: 1.4}, Capacity: FractionCapacity(total, frac)})
	}
	pts, err := replayAll(context.Background(), cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		// More cache must not hurt much (tiny non-monotonicities possible
		// with size-aware policies; allow 2% slack).
		if pts[i].MissRatio() > pts[i-1].MissRatio()+0.02 {
			t.Errorf("miss ratio rose with capacity: %v -> %v",
				pts[i-1].MissRatio(), pts[i].MissRatio())
		}
	}
	if pts[3].MissRatio() >= pts[0].MissRatio() {
		t.Error("50% cache should beat 0.5% cache decisively")
	}
}

func TestPersonMinutes(t *testing.T) {
	res := CacheResult{ReadMisses: 100}
	got := res.PersonMinutesPerDay(10, 90*time.Second)
	if got != 15 { // 100 misses * 1.5 min / 10 days
		t.Errorf("person-minutes/day = %v, want 15", got)
	}
	if res.PersonMinutesPerDay(0, time.Second) != 0 {
		t.Error("zero days should give 0")
	}
}

func TestAccessesFromRecords(t *testing.T) {
	recs := []trace.Record{
		{Start: t0, Op: trace.Write, Device: device.ClassDisk, Size: 10,
			MSSPath: "/mss/d1/a", LocalPath: "/l", UserID: 1},
		{Start: t0.Add(time.Minute), Op: trace.Read, Device: device.ClassDisk, Size: 10,
			MSSPath: "/mss/d1/a", LocalPath: "/l", UserID: 1},
		{Start: t0.Add(2 * time.Minute), Op: trace.Read, Device: device.ClassDisk, Size: 20,
			MSSPath: "/mss/d2/b", LocalPath: "/l", UserID: 1},
		{Start: t0.Add(3 * time.Minute), Op: trace.Read, Device: device.ClassDisk, Size: 0,
			MSSPath: "/mss/gone", LocalPath: "/l", UserID: 1, Err: trace.ErrNoFile},
	}
	accs := AccessesFromRecords(recs)
	if len(accs) != 3 {
		t.Fatalf("accesses = %d, want 3 (error dropped)", len(accs))
	}
	if accs[0].FileID != accs[1].FileID {
		t.Error("same path must map to same file ID")
	}
	if accs[0].FileID == accs[2].FileID {
		t.Error("different paths must map to different file IDs")
	}
	if accs[0].DirID == accs[2].DirID {
		t.Error("different directories must map to different dir IDs")
	}
	if !accs[0].Write || accs[1].Write {
		t.Error("ops mis-mapped")
	}
}

func TestTotalReferencedBytes(t *testing.T) {
	accs := []Access{
		acc(0, 1, units.Bytes(5*units.MB), true),
		acc(1, 1, units.Bytes(5*units.MB), false),
		acc(2, 2, units.Bytes(3*units.MB), false),
	}
	if got := TotalReferencedBytes(accs); got != units.Bytes(8*units.MB) {
		t.Errorf("total = %v, want 8 MB", got)
	}
}

func TestDirPrefetcher(t *testing.T) {
	accs := []Access{
		{Time: t0, FileID: 1, DirID: 5, Size: 1},
		{Time: t0.Add(time.Minute), FileID: 2, DirID: 5, Size: 1},
		{Time: t0.Add(2 * time.Minute), FileID: 3, DirID: 5, Size: 1},
		{Time: t0.Add(3 * time.Minute), FileID: 9, DirID: 6, Size: 1},
	}
	p := NewDirPrefetcher(accs, 2)
	got := p.Prefetch(accs[0])
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("prefetch after file 1 = %v, want [2 3]", got)
	}
	if got := p.Prefetch(accs[3]); len(got) != 0 {
		t.Errorf("last file of dir should prefetch nothing, got %v", got)
	}
	if got := p.Prefetch(Access{FileID: 77, DirID: 5}); got != nil {
		t.Errorf("unknown file should prefetch nothing, got %v", got)
	}
}

func TestPrefetchImprovesSequentialReads(t *testing.T) {
	// A "movie" workload (§3.3): read day1..dayN of a model run in order.
	var accs []Access
	for day := 0; day < 50; day++ {
		accs = append(accs, Access{
			Time:   t0.Add(time.Duration(day) * time.Minute),
			FileID: day, DirID: 1, Size: units.Bytes(8 * units.MB),
		})
	}
	capacity := units.Bytes(200 * units.MB)
	plain, _ := NewCache(CacheConfig{Capacity: capacity, Policy: LRU{}})
	plainRes := plain.Replay(accs)
	pre, _ := NewCache(CacheConfig{
		Capacity: capacity, Policy: LRU{},
		Prefetch: NewDirPrefetcher(accs, 1),
	})
	preRes := pre.Replay(accs)
	if preRes.ReadMisses >= plainRes.ReadMisses {
		t.Errorf("prefetch misses %d should beat plain %d", preRes.ReadMisses, plainRes.ReadMisses)
	}
	if preRes.PrefetchHits == 0 {
		t.Error("prefetch hits should be counted")
	}
}

func TestCoalesceMatchesSection6(t *testing.T) {
	// Three requests for the same file within 8h: two savable; a fourth a
	// week later is not.
	recs := []trace.Record{
		{Start: t0, Op: trace.Read, Device: device.ClassDisk, Size: 10, MSSPath: "/mss/a", LocalPath: "/l", UserID: 1},
		{Start: t0.Add(time.Hour), Op: trace.Read, Device: device.ClassDisk, Size: 10, MSSPath: "/mss/a", LocalPath: "/l", UserID: 1},
		{Start: t0.Add(7 * time.Hour), Op: trace.Read, Device: device.ClassDisk, Size: 10, MSSPath: "/mss/a", LocalPath: "/l", UserID: 1},
		{Start: t0.Add(8 * 24 * time.Hour), Op: trace.Read, Device: device.ClassDisk, Size: 10, MSSPath: "/mss/a", LocalPath: "/l", UserID: 1},
	}
	res := NewCoalescer().Run(recs, 8*time.Hour)
	if res.Requests != 4 || res.Savable != 2 {
		t.Errorf("requests/savable = %d/%d, want 4/2", res.Requests, res.Savable)
	}
	if res.SavableFraction() != 0.5 {
		t.Errorf("fraction = %v", res.SavableFraction())
	}
}

func TestCoalesceSweepMonotone(t *testing.T) {
	var recs []trace.Record
	rng := rand.New(rand.NewSource(6))
	cur := t0
	for i := 0; i < 2000; i++ {
		cur = cur.Add(time.Duration(rng.Intn(3600)) * time.Second)
		recs = append(recs, trace.Record{
			Start: cur, Op: trace.Read, Device: device.ClassDisk, Size: 10,
			MSSPath: "/mss/f" + string(rune('a'+rng.Intn(26))), LocalPath: "/l", UserID: 1,
		})
	}
	windows := []time.Duration{0, time.Hour, 8 * time.Hour, 24 * time.Hour}
	res := CoalesceSweep(recs, windows)
	for i := 1; i < len(res); i++ {
		if res[i].Savable < res[i-1].Savable {
			t.Error("longer windows must save at least as many requests")
		}
	}
	if res[0].Savable != 0 {
		t.Errorf("zero window saved %d", res[0].Savable)
	}
}

func TestCoalesceEmptyAndErrors(t *testing.T) {
	if got := NewCoalescer().Run(nil, time.Hour).SavableFraction(); got != 0 {
		t.Errorf("empty trace fraction = %v", got)
	}
	recs := []trace.Record{{Start: t0, Err: trace.ErrNoFile, MSSPath: "/x"}}
	if got := NewCoalescer().Run(recs, time.Hour); got.Requests != 0 {
		t.Error("error records must not count")
	}
}
