package migration

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"filemig/internal/units"
)

// agedSizes is the adversarial size palette: zero (weight class 0),
// off-by-one neighbours on both sides of class boundaries, and values
// several classes apart.
var agedSizes = []units.Bytes{0, 1, 1023, 1024, 1025, 1279, 1280, 4096, 4097,
	1 << 20, 1<<20 + 1, 5 << 20}

// agedAccesses decodes bytes into an access string built to break an
// eviction index, three bytes per access: file, size/write, time step.
// Reads carry the file's last written size (the palette entry of its ID
// until then), so a write moves a file across weight classes; time
// steps are same-instant bursts, one tick, seconds to hours, 72 h jumps,
// and the occasional step backwards. A tick of 1 ns probes the aged
// index's rounding; the keyed heap, whose time keys are float64 seconds
// (timeKey), takes whole-second ticks.
func agedAccesses(data []byte, files int, tick time.Duration) []Access {
	now := time.Date(1991, time.March, 1, 0, 0, 0, 0, time.UTC)
	size := make([]units.Bytes, files)
	for i := range size {
		size[i] = agedSizes[i%len(agedSizes)]
	}
	accs := make([]Access, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		file := int(data[0]) % files
		write := data[1]>>4&3 == 0
		if write {
			size[file] = agedSizes[int(data[1]&15)%len(agedSizes)]
		}
		n := time.Duration(data[2] >> 3)
		switch data[2] & 7 {
		case 0, 1: // same instant
		case 2:
			now = now.Add(tick)
		case 3:
			now = now.Add(n * time.Second)
		case 4:
			now = now.Add(n * time.Minute)
		case 5:
			now = now.Add(n * time.Hour)
		case 6:
			now = now.Add(72 * time.Hour)
		case 7:
			if n < 8 {
				now = now.Add(-n * 7 * time.Minute)
			} else {
				now = now.Add(24 * time.Hour)
			}
		}
		accs = append(accs, Access{Time: now, FileID: file, Size: size[file], Write: write, DirID: file % 5})
	}
	return accs
}

// agedPolicies builds a fresh instance of every policy the aged index
// serves.
func agedPolicies() []func() Policy {
	mks := []func() Policy{
		func() Policy { return SAAC{} },
		func() Policy { return NewAdaptiveSTP() },
	}
	for _, k := range []float64{0, 0.5, 1, 1.4, 3} {
		mks = append(mks, func() Policy { return STP{K: k} })
	}
	return mks
}

// replayLockstep replays accs through the policy's own victim path,
// through ScanOnly and through victimModel — the reference written from
// the definition: every resident ranked, stable-sorted, the covering
// prefix evicted — and demands the model's counters, occupancy and
// resident set from both caches after every single step, so a wrong
// victim is caught where it happens, not thousands of accesses later.
func replayLockstep(t *testing.T, accs []Access, mk func() Policy, capacity units.Bytes, prefetch bool) {
	t.Helper()
	cfgs := [2]CacheConfig{
		{Capacity: capacity, Policy: mk()},
		{Capacity: capacity, Policy: ScanOnly{P: mk()}},
	}
	var c [2]*Cache
	for i := range c {
		if prefetch {
			cfgs[i].Prefetch = NewDirPrefetcher(accs, 2)
		}
		var err error
		if c[i], err = NewCache(cfgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	m := newVictimModel(mk(), capacity, cfgs[0].Prefetch)
	for n, a := range accs {
		m.step(a)
		for i, path := range []string{"own path", "ScanOnly"} {
			if c[i].Step(a); !matchesModel(c[i], m) {
				t.Fatalf("%s capacity %d prefetch %v: %s diverged from the model at access %d %+v:\n  got:  %+v used %d\n  want: %+v used %d",
					cfgs[0].Policy.Name(), capacity, prefetch, path, n, a,
					c[i].Result(), c[i].Used(), m.res, m.used)
			}
		}
	}
}

// agedEdge is an explicit access string aimed at one corner of
// shrinkAged, with the capacity that puts it there.
type agedEdge struct {
	name     string
	accs     []Access
	capacity units.Bytes
}

// agedEdgeCases builds the explicit inputs of TestAgedIndexMatchesScan.
func agedEdgeCases(t *testing.T) []agedEdge {
	t0 := time.Date(1991, time.March, 1, 0, 0, 0, 0, time.UTC)
	read := func(at time.Duration, id int, size units.Bytes) Access {
		return Access{Time: t0.Add(at), FileID: id, Size: size, DirID: id % 5}
	}
	var out []agedEdge

	// One insert evicts many residents in a single shrink: thirty files
	// an hour apart fill the cache, then one file of 90 % of it arrives.
	var accs []Access
	var total units.Bytes
	for id := 0; id < 30; id++ {
		size := agedSizes[id%len(agedSizes)] + 1
		accs = append(accs, read(time.Duration(id)*time.Hour, id, size))
		total += size
	}
	accs = append(accs, read(31*time.Hour, 30, total*9/10), read(32*time.Hour, 3, agedSizes[3]+1))
	out = append(out, agedEdge{"one shrink evicts many", accs, total})

	// The protected file is the oldest resident: a write steps back in
	// time to grow file 0; the touch refiles it at the head of its class,
	// oldest of all, and the shrink that follows must skip it. The
	// growth is one file's size, so a single victim covers the deficit
	// exactly, and the cut must fall on it.
	accs = nil
	for id := 0; id < 6; id++ {
		accs = append(accs, read(time.Duration(id+2)*time.Hour, id, 4096))
	}
	grow := read(time.Hour, 0, 3*4096)
	grow.Write = true
	accs = append(accs, grow, read(9*time.Hour, 6, 4096))
	out = append(out, agedEdge{"protected file is the oldest", accs, 7 * 4096})

	// A same-instant burst where every rank is 0 (STP^0 aside): every
	// file is as old as the clock, so each victim is the lowest file ID,
	// zero-size files included.
	accs = nil
	for id := 0; id < 24; id++ {
		accs = append(accs, read(time.Hour, id, agedSizes[id%len(agedSizes)]))
	}
	out = append(out, agedEdge{"same-instant burst of rank-0 files", accs, 8 << 20})

	// STP-adapt's exponent moves between two shrinks at one clock, and
	// the move decides the second victim. File 1 is seen, then streams
	// through; file 2 (1 byte) stays the oldest resident, so rule (c)
	// stays loose; file 0 (empty) gives 63 accepted gaps of about 2 h.
	// On day 20, reading file 1 again shrinks (evicting D under K = 1.4,
	// after ranking A and B), then its 64th gap refits K to 3; file 6
	// at the same clock shrinks again, and under K = 3 B (0.8 MiB, idle
	// 1.12 days) out-ranks A (1 MiB, idle 1 day) — under 1.4 it did not.
	const mib = 1 << 20
	capacity := units.Bytes(3*mib + mib/2)
	streams := read(time.Hour, 1, capacity+1)
	streams.Write = true
	accs = []Access{read(0, 1, mib), streams, read(2*time.Hour, 2, 1)}
	at := 3 * time.Hour
	for j := 0; j < 64; j++ {
		accs = append(accs, read(at, 0, 0))
		at += 2*time.Hour + time.Duration(j)*time.Second
	}
	day20 := 20 * 24 * time.Hour
	accs = append(accs,
		read(day20-26*time.Hour-52*time.Minute-48*time.Second, 3, 4*mib/5), // B
		read(day20-26*time.Hour-24*time.Minute, 4, 6*mib/5),                // D
		read(day20-24*time.Hour, 5, mib),                                   // A
		read(day20, 1, mib), read(day20, 6, mib))
	if !exponentMovesWithinClock(accs, capacity) {
		t.Fatal("the STP-adapt edge case never refits between two shrinks at one clock")
	}
	out = append(out, agedEdge{"STP-adapt refit between shrinks at one clock", accs, capacity})
	return out
}

// exponentMovesWithinClock reports whether the scan reference, replaying
// accs under STP-adapt, evicts in two consecutive shrinks at one clock
// under different exponents. Every access of the STP-adapt edge case is
// a read, and a read miss shrinks before FileAccessed, so a shrink runs
// under the exponent its access found.
func exponentMovesWithinClock(accs []Access, capacity units.Bytes) bool {
	p := NewAdaptiveSTP()
	c, err := NewCache(CacheConfig{Capacity: capacity, Policy: ScanOnly{P: p}})
	if err != nil {
		return false
	}
	var lastAt time.Time
	lastK := math.NaN()
	for _, a := range accs {
		k, evictions := p.Exponent(), c.Result().Evictions
		c.Step(a)
		if c.Result().Evictions == evictions {
			continue
		}
		if a.Time.Equal(lastAt) && k != lastK {
			return true
		}
		lastAt, lastK = a.Time, k
	}
	return false
}

// TestAgedIndexMatchesScan is the aged index's exactness proof: on
// seeded adversarial strings and the explicit edge cases, at generous to
// starved capacities, with and without prefetch, every policy it serves
// replays step for step like the model and the full scan. It fails if
// the cut is taken past the first covering candidate (an exact cover
// then evicts one file too many), if the lowest-ID tie-break goes, if a
// list falls out of LastRef order when time steps back, if the oldest
// resident is remembered past its eviction or touch, if the aging table
// outlives an STP-adapt refit, or if class 0 is cut while the cut is 0.
func TestAgedIndexMatchesScan(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 3*1500)
		rng.Read(data)
		accs := agedAccesses(data, []int{24, 64, 200}[seed%3], time.Nanosecond)
		total := TotalReferencedBytes(accs)
		for _, mk := range agedPolicies() {
			c, err := NewCache(CacheConfig{Capacity: 1, Policy: mk()})
			if err != nil || c.aged == nil {
				t.Fatalf("%s is not on the aged index (err %v)", mk().Name(), err)
			}
			for _, div := range []units.Bytes{2, 7, 40} {
				replayLockstep(t, accs, mk, total/div, seed%3 == 1)
			}
		}
	}
	for _, e := range agedEdgeCases(t) {
		t.Run(e.name, func(t *testing.T) {
			for _, mk := range agedPolicies() {
				replayLockstep(t, e.accs, mk, e.capacity, false)
				replayLockstep(t, e.accs, mk, e.capacity, true)
			}
		})
	}
}

// ulpPolicy is an AgedPolicy at the edge of its contract: Rank is
// Weight × (1 + idle days), pushed up by up[ID] ulps — "within a few
// ulps" of the product, as the contract allows.
type ulpPolicy struct {
	weight []float64
	up     []int
}

func (ulpPolicy) Name() string                   { return "ulp-edge" }
func (p ulpPolicy) Weight(f *CachedFile) float64 { return p.weight[f.ID] }
func (ulpPolicy) AgingMonotone() bool            { return true }
func (ulpPolicy) Aging(age int64) float64        { return 1 + max(time.Duration(age).Hours()/24, 0) }
func (p ulpPolicy) Rank(f *CachedFile, now int64) float64 {
	r := p.weight[f.ID] * ulpPolicy{}.Aging(int64(since(now, f.LastRef)))
	for range p.up[f.ID] {
		r = math.Nextafter(r, math.Inf(1))
	}
	return r
}

// TestAgedSlackAtContractEdge puts shrinkAged's bounds within ulps of
// the cut, where only agedSlack keeps them sound. Every age is 0, whose
// aging-table bucket is exact, so every bound is a weight × 1. Class i
// is the weights [1024, 1280): 1280 is its upper bound, and
// w⁻ = 1279.99… is its heaviest weight. In each case file h of class i,
// pushed up 3 ulps by its Rank, out-ranks file g of class i+1 by an ulp,
// so the scan evicts h — one victim, so g's rank is the cut when h
// comes up:
//
//   - rules (a) and (b): file f (weight 1024) leads class i with h
//     behind it; class i's bound, 1280, is an ulp under g's rank, and so
//     is h's own, w⁻; an old light file keeps rule (c)'s bound far away;
//   - rule (c): h is alone in class i and every file is as old as the
//     clock, so class i's bound, 1280 × 1, is an ulp under g's rank.
//
// Without the slack on the table's bound the index evicts g instead.
func TestAgedSlackAtContractEdge(t *testing.T) {
	below := math.Nextafter(1280, 0)
	above := math.Nextafter(1280, math.Inf(1))
	t0 := time.Date(1991, time.March, 1, 0, 0, 0, 0, time.UTC)
	day := t0.Add(24 * time.Hour)
	for _, tc := range []struct {
		name   string
		weight []float64
		up     []int
		at     []time.Time // insertion time per file; the last file's insert shrinks
	}{
		{"rule (a)", // and rule (b); g, f, h, old light file, trigger
			[]float64{1280, 1024, below, 1, 1}, []int{1, 0, 3, 0, 0},
			[]time.Time{day, day, day, t0, day}},
		{"rule (c)", // g, h, trigger
			[]float64{above, below, 1}, []int{0, 3, 0},
			[]time.Time{day, day, day}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var accs []Access
			for id, at := range tc.at {
				accs = append(accs, Access{Time: at, FileID: id, Size: 1})
			}
			mk := func() Policy { return ulpPolicy{tc.weight, tc.up} }
			if c, err := NewCache(CacheConfig{Capacity: 1, Policy: mk()}); err != nil || c.aged == nil {
				t.Fatalf("ulpPolicy is not on the aged index (err %v)", err)
			}
			replayLockstep(t, accs, mk, units.Bytes(len(accs)-1), false)
		})
	}
}

// countingSTP is STP^1.4 counting its Rank calls and the residents it
// ranks twice within one step. Its embedded STP keeps Weight, Aging and
// AgingMonotone, so it rides the aged index.
type countingSTP struct {
	STP
	step  int
	calls int
	last  []int // FileID -> 1 + the step it was last ranked in
	twice int
}

func (p *countingSTP) Rank(f *CachedFile, now int64) float64 {
	p.calls++
	p.last = growTo(p.last, f.ID)
	if p.last[f.ID] == p.step+1 {
		p.twice++
	}
	p.last[f.ID] = p.step + 1
	return p.STP.Rank(f, now)
}

// TestAgedIndexRankCalls pins the aged index's work without timing it:
// on a seeded adversarial string (no prefetch, so one shrink per step at
// most), no resident is ranked twice within a shrink, and the Rank calls
// stay within the count one walk per shrink under the aging table's
// bound brought it to (1 685 for 1 330 evictions). A walk per victim
// with a rank memo made 3 317; before the memo, 11 689.
func TestAgedIndexRankCalls(t *testing.T) {
	data := make([]byte, 3*5000)
	rand.New(rand.NewSource(1993)).Read(data)
	accs := agedAccesses(data, 200, time.Nanosecond)
	capacity := TotalReferencedBytes(accs) / 7
	p := &countingSTP{STP: STP{K: 1.4}}
	c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
	if err != nil || c.aged == nil {
		t.Fatalf("countingSTP is not on the aged index (err %v)", err)
	}
	for i, a := range accs {
		p.step = i
		c.Step(a)
	}
	got := c.Result()
	ref, err := NewCache(CacheConfig{Capacity: capacity, Policy: ScanOnly{P: STP{K: 1.4}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Replay(accs); got != want {
		t.Fatalf("counted replay diverged from the scan:\n  got:  %+v\n  want: %+v", got, want)
	}
	if p.twice != 0 {
		t.Errorf("%d residents ranked twice within one shrink", p.twice)
	}
	const bound = 1685
	t.Logf("%d Rank calls for %d evictions", p.calls, got.Evictions)
	if p.calls > bound {
		t.Errorf("%d Rank calls, want <= %d", p.calls, bound)
	}
}

// FuzzAgedIndexMatchesScan lets the fuzzer write the access string: the
// first three bytes choose policy, capacity and prefetch, the rest is
// decoded by agedAccesses.
func FuzzAgedIndexMatchesScan(f *testing.F) {
	f.Add([]byte("\x00\x00\x00abcabdabeabf"))
	f.Add([]byte{3, 1, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 6, 5, 0, 0, 6, 0, 0, 7, 0, 15})
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
		mks := agedPolicies()
		accs := agedAccesses(data[3:], 64, time.Nanosecond)
		capacity := TotalReferencedBytes(accs)/[]units.Bytes{2, 7, 40}[data[1]%3] + 1
		replayLockstep(t, accs, mks[int(data[0])%len(mks)], capacity, data[2]&1 == 1)
	})
}

// TestAgedIndexOffWhenAgingNotMonotone pins the soundness guard: an STP
// exponent whose aging curve is not non-decreasing (K < 0 ranks young
// files highest) or leaves float64's normal range (NaN, ±Inf, huge)
// must keep the scan path and replay exactly like ScanOnly, as must
// Random and anything wrapped in ScanOnly.
func TestAgedIndexOffWhenAgingNotMonotone(t *testing.T) {
	data := make([]byte, 3*1500)
	rand.New(rand.NewSource(5)).Read(data)
	accs := agedAccesses(data, 64, time.Nanosecond)
	capacity := TotalReferencedBytes(accs) / 7
	for _, k := range []float64{-1, -0.5, math.NaN(), math.Inf(1), math.Inf(-1), stpAgedMaxK + 1} {
		c, err := NewCache(CacheConfig{Capacity: capacity, Policy: STP{K: k}})
		if err != nil {
			t.Fatal(err)
		}
		if c.aged != nil {
			t.Errorf("STP{K: %v} must not use the aged index", k)
		}
		replayLockstep(t, accs, func() Policy { return STP{K: k} }, capacity, false)
	}
	for _, p := range []Policy{NewRandom(1), ScanOnly{P: STP{K: 1.4}}, ScanOnly{P: SAAC{}}, LRU{}} {
		c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if c.aged != nil {
			t.Errorf("%T must not use the aged index", p)
		}
	}
}
