package migration

import (
	"math/rand"
	"testing"
	"time"

	"filemig/internal/trace"
	"filemig/internal/units"
)

var t0 = trace.Epoch

// n0 is t0 as the UnixNano instant policies take.
var n0 = t0.UnixNano()

func cf(id int, size units.Bytes, lastRefAgo time.Duration, refs int) *CachedFile {
	return &CachedFile{
		ID: id, Size: size,
		Inserted: n0 - 2*int64(lastRefAgo), LastRef: n0 - int64(lastRefAgo), Refs: refs,
	}
}

func TestSTPPrefersOldAndLarge(t *testing.T) {
	p := STP{K: 1.4}
	oldBig := cf(1, units.Bytes(100*units.MB), 10*24*time.Hour, 1)
	oldSmall := cf(2, units.Bytes(units.MB), 10*24*time.Hour, 1)
	newBig := cf(3, units.Bytes(100*units.MB), time.Hour, 1)
	if p.Rank(oldBig, n0) <= p.Rank(oldSmall, n0) {
		t.Error("same age: larger file should rank higher")
	}
	if p.Rank(oldBig, n0) <= p.Rank(newBig, n0) {
		t.Error("same size: older file should rank higher")
	}
	if p.Name() != "STP^1.4" {
		t.Errorf("Name = %q", p.Name())
	}
	if (STP{K: 1}).Name() != "STP^1" {
		t.Errorf("Name K=1 = %q", (STP{K: 1}).Name())
	}
}

func TestSTPExponentTradesSizeForRecency(t *testing.T) {
	// With a tiny K, size dominates: a large recently-used file outranks a
	// small ancient one. With a huge K, recency dominates.
	large := cf(1, units.Bytes(199*units.MB), 2*24*time.Hour, 1)
	small := cf(2, units.Bytes(100*units.KB), 60*24*time.Hour, 1)
	lowK := STP{K: 0.1}
	highK := STP{K: 5}
	if lowK.Rank(large, n0) <= lowK.Rank(small, n0) {
		t.Error("K=0.1: size should dominate")
	}
	if highK.Rank(small, n0) <= highK.Rank(large, n0) {
		t.Error("K=5: age should dominate")
	}
}

func TestSTPRankPinnedValues(t *testing.T) {
	// Pin the age unit: Smith measured age in days, so a file last used
	// exactly one day ago has rank 1^K × size = size for every K. The
	// historical *24 bug made that age 576 "days".
	size := units.Bytes(10 * units.MB)
	day := cf(1, size, 24*time.Hour, 1)
	twoDays := cf(2, size, 48*time.Hour, 1)
	threeDays := cf(3, size, 72*time.Hour, 1)
	cases := []struct {
		p    STP
		f    *CachedFile
		want float64
	}{
		{STP{K: 1.4}, day, float64(size)},
		{STP{K: 1}, day, float64(size)},
		{STP{K: 1}, twoDays, 2 * float64(size)},
		{STP{K: 1}, threeDays, 3 * float64(size)},
		{STP{K: 2}, threeDays, 9 * float64(size)},
		{STP{K: 0}, threeDays, float64(size)},
	}
	for _, c := range cases {
		if got := c.p.Rank(c.f, n0); got != c.want {
			t.Errorf("%s.Rank(age %v) = %g, want %g",
				c.p.Name(), since(n0, c.f.LastRef), got, c.want)
		}
	}
	if got := (STP{K: 1.4}).Rank(cf(4, size, -time.Hour, 1), n0); got != 0 {
		t.Errorf("future LastRef must clamp to age 0, got rank %g", got)
	}
}

func TestKeyedPolicyCapability(t *testing.T) {
	// Policies with time-invariant victim ordering expose Key; the
	// rank-crossing ones must not — a frozen heap order would be wrong
	// for them (STP and SAAC take the aged index instead, Random the scan).
	keyed := []Policy{LRU{}, FIFO{}, LargestFirst{}, SmallestFirst{}, NewOPT(NewFutureIndex(nil))}
	for _, p := range keyed {
		if _, ok := p.(KeyedPolicy); !ok {
			t.Errorf("%s should implement KeyedPolicy", p.Name())
		}
	}
	scan := []Policy{STP{K: 1.4}, SAAC{}, NewRandom(1), ScanOnly{P: LRU{}}}
	for _, p := range scan {
		if _, ok := p.(KeyedPolicy); ok {
			t.Errorf("%s must not implement KeyedPolicy", p.Name())
		}
	}
}

func TestKeyOrderMatchesRankOrder(t *testing.T) {
	// For every keyed policy, Key ordering must agree with Rank ordering
	// at any fixed now (higher rank ⇔ higher key).
	accs := []Access{
		{Time: t0.Add(30 * time.Hour), FileID: 1},
		{Time: t0.Add(90 * time.Hour), FileID: 2},
	}
	files := []*CachedFile{
		cf(1, units.Bytes(4*units.MB), 6*time.Hour, 2),
		cf(2, units.Bytes(64*units.MB), 3*time.Hour, 1),
		cf(3, units.Bytes(units.MB), 48*time.Hour, 5),
		cf(4, units.Bytes(16*units.MB), 12*time.Hour, 1),
	}
	for _, p := range []KeyedPolicy{LRU{}, FIFO{}, LargestFirst{}, SmallestFirst{},
		NewOPT(NewFutureIndex(accs))} {
		for i, a := range files {
			for _, b := range files[i+1:] {
				ra, rb := p.Rank(a, n0), p.Rank(b, n0)
				ka, kb := p.Key(a), p.Key(b)
				if (ra > rb) != (ka > kb) || (ra < rb) != (ka < kb) {
					t.Errorf("%s: rank order (%g vs %g) disagrees with key order (%g vs %g) for files %d/%d",
						p.Name(), ra, rb, ka, kb, a.ID, b.ID)
				}
			}
		}
	}
}

func TestLRURanks(t *testing.T) {
	p := LRU{}
	older := cf(1, 1, time.Hour, 1)
	newer := cf(2, 1000, time.Minute, 1)
	if p.Rank(older, n0) <= p.Rank(newer, n0) {
		t.Error("LRU must prefer the older file regardless of size")
	}
}

func TestSizePolicies(t *testing.T) {
	big := cf(1, units.Bytes(100*units.MB), time.Minute, 1)
	small := cf(2, units.Bytes(units.MB), 100*time.Hour, 1)
	if (LargestFirst{}).Rank(big, n0) <= (LargestFirst{}).Rank(small, n0) {
		t.Error("largest-first must prefer big files")
	}
	if (SmallestFirst{}).Rank(small, n0) <= (SmallestFirst{}).Rank(big, n0) {
		t.Error("smallest-first must prefer small files")
	}
}

func TestFIFORanks(t *testing.T) {
	p := FIFO{}
	early := &CachedFile{ID: 1, Inserted: n0 - int64(10*time.Hour), LastRef: n0}
	late := &CachedFile{ID: 2, Inserted: n0 - int64(time.Hour), LastRef: n0 - int64(20*time.Hour)}
	if p.Rank(early, n0) <= p.Rank(late, n0) {
		t.Error("FIFO ranks by insertion, not reference")
	}
}

func TestSAACPrefersQuietOnceBusyFiles(t *testing.T) {
	p := SAAC{}
	busy := cf(1, units.Bytes(10*units.MB), 24*time.Hour, 50)
	quiet := cf(2, units.Bytes(10*units.MB), 24*time.Hour, 1)
	if p.Rank(quiet, n0) <= p.Rank(busy, n0) {
		t.Error("SAAC should evict the file with fewer accumulated references")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a, b := NewRandom(5), NewRandom(5)
	f := cf(1, 1, time.Hour, 1)
	for i := 0; i < 10; i++ {
		if a.Rank(f, n0) != b.Rank(f, n0) {
			t.Fatal("random policy must be deterministic per seed")
		}
	}
}

func TestOPTRanksByNextUse(t *testing.T) {
	accs := []Access{
		{Time: t0.Add(1 * time.Hour), FileID: 1},
		{Time: t0.Add(2 * time.Hour), FileID: 2},
		{Time: t0.Add(50 * time.Hour), FileID: 1},
	}
	idx := NewFutureIndex(accs)
	p := NewOPT(idx)
	// After t0+2h: file 1 next used at +50h; file 2 never again.
	now := n0 + int64(2*time.Hour)
	f1 := cf(1, units.Bytes(units.MB), -time.Hour, 1)
	f2 := cf(2, units.Bytes(units.MB), -2*time.Hour, 1)
	if p.Rank(f2, now) <= p.Rank(f1, now) {
		t.Error("never-used-again file must rank above one used soon")
	}
	// Among two never-again files, bigger ranks higher.
	f3 := cf(3, units.Bytes(100*units.MB), time.Hour, 1)
	if p.Rank(f3, now) <= p.Rank(f2, now) {
		t.Error("among dead files, bigger should rank higher")
	}
}

// TestOPTRankCountsBurstReference pins OPT's Rank to its Key when a
// reference is pending at the replay clock, later in a same-instant
// burst: the file is due at once, so it ranks 0 and below a dead file,
// as its key orders it. Measured from now, that reference was missed
// and the bigger file ranked dead above the smaller one.
func TestOPTRankCountsBurstReference(t *testing.T) {
	at := t0.Add(time.Hour)
	accs := []Access{{Time: t0, FileID: 1}, {Time: t0, FileID: 2}, {Time: at, FileID: 3}, {Time: at, FileID: 2}}
	p := NewOPT(NewFutureIndex(accs))
	dead := cf(1, units.Bytes(units.MB), 0, 1)
	due := cf(2, units.Bytes(100*units.MB), 0, 1)
	now := at.UnixNano()
	if got := p.Rank(due, now); got != 0 {
		t.Errorf("file due at the clock ranks %g, want 0", got)
	}
	if p.Rank(dead, now) <= p.Rank(due, now) || p.Key(dead) <= p.Key(due) {
		t.Error("a dead file must rank and key above one due at the clock")
	}
}

func TestFutureIndexCursorAdvances(t *testing.T) {
	accs := []Access{
		{Time: t0.Add(1 * time.Hour), FileID: 7},
		{Time: t0.Add(5 * time.Hour), FileID: 7},
		{Time: t0.Add(9 * time.Hour), FileID: 7},
	}
	idx := NewFutureIndex(accs)
	next, ok := idx.NextAfter(7, n0)
	if !ok || next != n0+int64(1*time.Hour) {
		t.Fatalf("NextAfter(t0) = %v %v", next, ok)
	}
	next, ok = idx.NextAfter(7, n0+int64(5*time.Hour))
	if !ok || next != n0+int64(9*time.Hour) {
		t.Fatalf("NextAfter(+5h) = %v %v", next, ok)
	}
	if _, ok := idx.NextAfter(7, n0+int64(10*time.Hour)); ok {
		t.Error("no reference after +9h")
	}
	if _, ok := idx.NextAfter(99, n0); ok {
		t.Error("unknown file has no future")
	}
}

// TestFutureRowsShareAcrossReplays: views of one FutureRows keep their
// own cursors, so a view that has replayed the whole string leaves the
// rows — and a view taken after it — answering from the start, exactly
// as an index built afresh does.
func TestFutureRowsShareAcrossReplays(t *testing.T) {
	var accs []Access
	for i := range 60 {
		accs = append(accs, Access{Time: t0.Add(time.Duration(i/2) * time.Hour), FileID: i * 7 % 11})
	}
	rows := NewFutureRows(accs)
	done := rows.Index()
	for _, a := range accs {
		done.NextAfter(a.FileID, a.Time.UnixNano())
	}
	if _, ok := done.NextAfter(accs[0].FileID, accs[len(accs)-1].Time.UnixNano()); ok {
		t.Fatal("a view replayed to the end still sees a future reference")
	}
	view, fresh := rows.Index(), NewFutureIndex(accs)
	for _, a := range accs {
		for _, file := range []int{a.FileID, (a.FileID + 3) % 11} {
			got, gotOK := view.NextAfter(file, a.Time.UnixNano())
			want, wantOK := fresh.NextAfter(file, a.Time.UnixNano())
			if got != want || gotOK != wantOK {
				t.Fatalf("shared view: NextAfter(%d, %v) = %v %v, fresh index %v %v",
					file, a.Time, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestFutureIndexMatchesModel checks the flat index against a naive
// per-file list searched from the start on every query, over seeded
// strings with repeated instants, files referenced once, IDs never
// referenced, and queries outside the ID range, asked in forward-replay
// order: at each access's instant, for the accessed file and a few
// others.
func TestFutureIndexMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var accs []Access
		minute, once := 0, 1000
		for range 300 + rng.Intn(300) {
			minute += rng.Intn(3)  // 0: a repeated instant
			id := 2 * rng.Intn(40) // odd IDs below 80 are never referenced
			if rng.Intn(5) == 0 {
				id = once // referenced exactly once
				once++
			}
			accs = append(accs, Access{Time: t0.Add(time.Duration(minute) * time.Minute), FileID: id})
		}
		model := map[int][]int64{}
		for _, a := range accs {
			model[a.FileID] = append(model[a.FileID], a.Time.UnixNano())
		}
		naive := func(file int, at int64) (int64, bool) {
			for _, ts := range model[file] {
				if ts > at {
					return ts, true
				}
			}
			return 0, false
		}
		idx := NewFutureIndex(accs)
		for _, a := range accs {
			for _, file := range []int{a.FileID, rng.Intn(90), 1000 + rng.Intn(once-1000), -1, once, once + 7} {
				got, gotOK := idx.NextAfter(file, a.Time.UnixNano())
				want, wantOK := naive(file, a.Time.UnixNano())
				if gotOK != wantOK || got != want {
					t.Fatalf("seed %d: NextAfter(%d, %v) = %v %v, want %v %v",
						seed, file, a.Time, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[Policy]string{
		LRU{}:           "LRU",
		LargestFirst{}:  "largest-first",
		SmallestFirst{}: "smallest-first",
		FIFO{}:          "FIFO",
		SAAC{}:          "SAAC",
		NewRandom(1):    "random",
		STP{K: 1.4}:     "STP^1.4",
	}
	for p, want := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
	if NewOPT(NewFutureIndex(nil)).Name() != "OPT" {
		t.Error("OPT name wrong")
	}
}
