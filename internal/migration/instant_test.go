package migration

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"filemig/internal/trace"
	"filemig/internal/units"
)

// TestSinceMatchesTimeSub holds the integer instants to the time.Time
// arithmetic they replace: since against Time.Sub, and timeKey against
// its former t.Sub(trace.Epoch).Seconds() bit for bit, over seeded
// instants across the whole UnixNano range (1678–2262), both saturation
// ends, trace.Epoch ±1 ns and equal instants.
func TestSinceMatchesTimeSub(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	instants := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64,
		epochNanos - 1, epochNanos, epochNanos + 1}
	for range 2000 {
		instants = append(instants, int64(rng.Uint64()), epochNanos+rng.Int63n(1<<50)-1<<49)
	}
	for i, a := range instants {
		ta := time.Unix(0, a)
		if got, want := math.Float64bits(timeKey(a)), math.Float64bits(ta.Sub(trace.Epoch).Seconds()); got != want {
			t.Fatalf("timeKey(%d) bits %#x, want %#x", a, got, want)
		}
		for _, b := range []int64{a, instants[(i+1)%len(instants)], instants[rng.Intn(len(instants))]} {
			if got, want := since(a, b), ta.Sub(time.Unix(0, b)); got != want {
				t.Fatalf("since(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
	if since(math.MaxInt64, math.MinInt64) != math.MaxInt64 || since(math.MinInt64, math.MaxInt64) != math.MinInt64 {
		t.Error("since must saturate at both ends")
	}
}

// shiftAccesses returns accs moved by d.
func shiftAccesses(accs []Access, d time.Duration) []Access {
	out := make([]Access, len(accs))
	for i, a := range accs {
		a.Time = a.Time.Add(d)
		out[i] = a
	}
	return out
}

// tournamentPolicies builds a fresh instance of each of the 14
// tournament policies over accs.
func tournamentPolicies(accs []Access) []Policy {
	return []Policy{STP{K: 1.4}, STP{K: 1}, LRU{}, FIFO{}, SAAC{}, LargestFirst{}, SmallestFirst{},
		NewRandom(1), NewOPT(NewFutureIndex(accs)), NewARC(), NewLRUK(2), NewGDSF(),
		NewCostAware(DefaultTapeRateMBps), NewAdaptiveSTP()}
}

// TestReplayShiftInvariant moves a whole-second access string by whole
// days — once to start exactly at Unix 0, once to straddle 1970 — and
// demands every tournament policy replay it exactly as before, and
// STP-adapt end on the same exponent: an instant is a position in time,
// and none of them, 0 and negative ones included, may mean "unseen".
// The string opens with a burst at its first instant and revisits those
// files, so an instant-0 "unseen" sentinel would drop their gaps.
func TestReplayShiftInvariant(t *testing.T) {
	start := time.Date(1991, time.March, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	var accs []Access
	at := start
	for i := range 6000 {
		id := rng.Intn(300)
		if i < 40 {
			id = i // the opening burst, all at start
		} else if rng.Intn(3) > 0 {
			at = at.Add(time.Duration(rng.Intn(90)) * time.Minute)
		}
		size := units.Bytes((id%37 + 1) * (1 << 16))
		accs = append(accs, Access{Time: at, FileID: id, Size: size, Write: rng.Intn(4) == 0, DirID: id % 9})
	}
	toZero := time.Unix(0, 0).Sub(start)
	shifts := []struct {
		name string
		d    time.Duration
	}{
		{"starts at Unix 0", toZero},
		{"straddles 1970", toZero - 40*24*time.Hour},
	}
	if span := accs[len(accs)-1].Time.Sub(start); span <= 40*24*time.Hour {
		t.Fatalf("string spans %v, too short to straddle 1970", span)
	}
	total := TotalReferencedBytes(accs)
	for _, capacity := range []units.Bytes{total / 5, total / 30} {
		want := tournamentPolicies(accs)
		for i, p := range want {
			c, err := NewCache(CacheConfig{Capacity: capacity, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			res := c.Replay(accs)
			for _, s := range shifts {
				moved := shiftAccesses(accs, s.d)
				q := tournamentPolicies(moved)[i]
				c, err := NewCache(CacheConfig{Capacity: capacity, Policy: q})
				if err != nil {
					t.Fatal(err)
				}
				if got := c.Replay(moved); got != res {
					t.Errorf("%s, %s: replay moved:\n  got:  %+v\n  want: %+v", s.name, p.Name(), got, res)
				}
				if a, ok := q.(*AdaptiveSTP); ok && a.Exponent() != p.(*AdaptiveSTP).Exponent() {
					t.Errorf("%s: STP-adapt exponent %v, want %v", s.name, a.Exponent(), p.(*AdaptiveSTP).Exponent())
				}
			}
		}
	}
}
