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
// steps are same-instant bursts, 1 ns, seconds to hours, 72 h jumps,
// and the occasional step backwards.
func agedAccesses(data []byte, files int) []Access {
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
			now = now.Add(time.Nanosecond)
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

// replayLockstep replays accs through the policy's own victim path and
// through ScanOnly — the reference: every resident ranked on every
// shrink — and demands identical counters, occupancy and resident set
// after every single step, so a wrong victim is caught where it
// happens, not thousands of accesses later.
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
	for n, a := range accs {
		c[0].Step(a)
		c[1].Step(a)
		same := c[0].Result() == c[1].Result() && c[0].Used() == c[1].Used() &&
			c[0].Resident() == c[1].Resident()
		for id := 0; same && id < len(c[1].resident); id++ {
			same = (c[0].lookup(id) != nil) == (c[1].lookup(id) != nil)
		}
		if !same {
			t.Fatalf("%s capacity %d prefetch %v: diverged from the scan path at access %d %+v:\n  got:  %+v used %d\n  want: %+v used %d",
				cfgs[0].Policy.Name(), capacity, prefetch, n, a,
				c[0].Result(), c[0].Used(), c[1].Result(), c[1].Used())
		}
	}
}

// TestAgedIndexMatchesScan is the aged index's exactness proof: on
// seeded adversarial strings, at generous to starved capacities, with
// and without prefetch, every policy it serves replays step for step
// like the full scan. It fails if rule (b) lets a rank-0 candidate
// dominate (a same-instant burst then drops a lower-ID rank-0 tie), if
// the lowest-ID tie-break goes, or if a list falls out of LastRef order
// when time steps back.
func TestAgedIndexMatchesScan(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, 3*1500)
		rng.Read(data)
		accs := agedAccesses(data, []int{24, 64, 200}[seed%3])
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
		accs := agedAccesses(data[3:], 64)
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
	accs := agedAccesses(data, 64)
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
