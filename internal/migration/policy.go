// Package migration implements the file migration algorithms discussed in
// the paper's §2.3 and §6 — Smith's space-time product (STP) with its
// canonical 1.4 exponent, LRU, pure-size, FIFO, random, Lawrie's SAAC, and
// an offline OPT bound — plus the disk-cache simulator that replays a
// reference string against a finite staging disk to compare them, the
// eight-hour request-coalescing analysis, and prefetching.
package migration

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"filemig/internal/trace"
	"filemig/internal/units"
)

// CachedFile is a resident file as seen by a policy. Its instants, like
// every instant the replay hands a policy, are UnixNano: nanoseconds
// since 1970-01-01T00:00:00Z, so an access string must lie within the
// years 1678–2262.
type CachedFile struct {
	ID       int
	Size     units.Bytes
	Inserted int64 // UnixNano of the insertion
	LastRef  int64 // UnixNano of the latest reference
	Refs     int   // references since insertion
}

// Policy ranks eviction candidates. The cache evicts the resident file
// with the highest Rank until enough space is free; ties resolve to the
// lowest file ID. Rank must not mutate the file; now is a UnixNano
// instant.
type Policy interface {
	Name() string
	Rank(f *CachedFile, now int64) float64
}

// since is t − u as time.Time's Sub computes it for the same UnixNano
// instants: exact when the difference fits a Duration, saturated at its
// ends otherwise. Every policy measures an age through it, so an
// integer rank is bit-identical to its time.Time original.
func since(t, u int64) time.Duration {
	d := t - u
	switch {
	case t >= u && d < 0:
		return math.MaxInt64
	case t < u && d > 0:
		return math.MinInt64
	}
	return time.Duration(d)
}

// KeyedPolicy is an optional Policy capability for policies whose victim
// ordering is time-invariant during replay: the relative order of two
// resident files never changes between touches, so the cache can keep an
// indexed priority heap (highest Key evicts first, ties to the lowest
// file ID) and pick victims in O(log R) instead of scanning every
// resident file. Key is recomputed only when a file is inserted or
// touched. Policies whose ranks cross over time (STP, SAAC, Random) must
// not implement it: STP and SAAC declare AgedPolicy instead, Random
// keeps the deterministic scan fallback.
type KeyedPolicy interface {
	Policy
	Key(f *CachedFile) float64
}

// ScanOnly wraps a policy and hides any KeyedPolicy or AgedPolicy
// capability, forcing the cache onto the scan path — the reference the
// equivalence tests and benchmarks compare heap and aged-index victim
// selection against. Only the fast victim paths are hidden: the cache
// still resolves AccessObserver, VictimPolicy, and CapacityAware through
// the wrapper, so stateful policies keep seeing their accesses.
type ScanOnly struct{ P Policy }

// Name implements Policy.
func (s ScanOnly) Name() string { return s.P.Name() }

// Rank implements Policy.
func (s ScanOnly) Rank(f *CachedFile, now int64) float64 { return s.P.Rank(f, now) }

// epochNanos is trace.Epoch as a UnixNano instant.
var epochNanos = trace.Epoch.UnixNano()

// timeKey maps a UnixNano instant onto a float64 eviction key: seconds
// relative to the trace epoch. Over the paper's ±2-year window keys are
// spaced ≤8ns — the same precision class as the scan path's float64
// rank seconds (and far below optDead) — so heap and scan victim orders
// agree for any realistic trace resolution.
func timeKey(t int64) float64 {
	return since(t, epochNanos).Seconds()
}

// STP is Smith's space-time product criterion: evict the file with the
// largest (time since last reference)^K × size. K=1.4 was the best
// exponent in Smith's study and the one Lawrie validated; K=1 is the
// plain space-time product; K→0 degenerates toward pure size; K→∞ toward
// LRU. Ranks cross over time, so STP is never heap-keyed; it is an
// AgedPolicy (weight = size, aging = age^K), and the cache picks its
// victims through the aged index — same Rank, same frozen clock, same
// (rank, lowest file ID) order as the full scan, minus the residents a
// bound proves cannot win.
type STP struct {
	K float64
}

// Name implements Policy: the exponent in the shortest decimal that
// parses back to it, so distinct exponents never share a name.
func (p STP) Name() string { return "STP^" + strconv.FormatFloat(p.K, 'g', -1, 64) }

// Rank implements Policy.
func (p STP) Rank(f *CachedFile, now int64) float64 {
	return stpAging(int64(since(now, f.LastRef)), p.K) * float64(f.Size)
}

// stpAgedMaxK is the largest exponent the aged index takes: the shortest
// age, 1 ns, is about 1e-14 days, so up to here age^K × size is zero or
// a normal float64 and AgedPolicy's contract holds.
const stpAgedMaxK = 16

// Weight implements AgedPolicy: the size factor of the product.
func (p STP) Weight(f *CachedFile) float64 { return float64(f.Size) }

// Aging implements AgedPolicy: age^K, the age in days.
func (p STP) Aging(age int64) float64 { return stpAging(age, p.K) }

// AgingMonotone implements AgedPolicy: age^K is non-decreasing for
// 0 <= K <= stpAgedMaxK. A negative K ranks young files highest, and a
// NaN, infinite or huge K leaves float64's normal range; those
// exponents keep the scan path.
func (p STP) AgingMonotone() bool { return p.K >= 0 && p.K <= stpAgedMaxK }

// LRU evicts the least recently used file regardless of size.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "LRU" }

// Rank implements Policy.
func (LRU) Rank(f *CachedFile, now int64) float64 {
	return since(now, f.LastRef).Seconds()
}

// Key implements KeyedPolicy: oldest last reference evicts first.
func (LRU) Key(f *CachedFile) float64 { return -timeKey(f.LastRef) }

// LargestFirst migrates the biggest files first ("pure length" in
// Lawrie's study): frees the most space per eviction but throws away big
// hot files.
type LargestFirst struct{}

// Name implements Policy.
func (LargestFirst) Name() string { return "largest-first" }

// Rank implements Policy.
func (LargestFirst) Rank(f *CachedFile, _ int64) float64 { return float64(f.Size) }

// Key implements KeyedPolicy.
func (LargestFirst) Key(f *CachedFile) float64 { return float64(f.Size) }

// SmallestFirst is the mirror baseline: keeps big files pinned.
type SmallestFirst struct{}

// Name implements Policy.
func (SmallestFirst) Name() string { return "smallest-first" }

// Rank implements Policy.
func (SmallestFirst) Rank(f *CachedFile, _ int64) float64 { return -float64(f.Size) }

// Key implements KeyedPolicy.
func (SmallestFirst) Key(f *CachedFile) float64 { return -float64(f.Size) }

// FIFO evicts the file resident longest, ignoring use.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// Rank implements Policy.
func (FIFO) Rank(f *CachedFile, now int64) float64 {
	return since(now, f.Inserted).Seconds()
}

// Key implements KeyedPolicy: earliest insertion evicts first.
func (FIFO) Key(f *CachedFile) float64 { return -timeKey(f.Inserted) }

// Random evicts uniformly at random (deterministic per seed).
type Random struct {
	rng *rand.Rand
}

// NewRandom builds a Random policy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Rank implements Policy. Each call consumes the next rng draw; replays
// stay deterministic because every scan ranks candidates in ascending
// file ID order (the resident slices are walked in index order).
func (r *Random) Rank(*CachedFile, int64) float64 { return r.rng.Float64() }

// SAAC approximates Lawrie's "migrate files that became less active"
// criterion: rank grows with idle time and shrinks with the reference
// count accumulated while resident, so a once-busy file that went quiet
// leaves before a steadily-used one.
type SAAC struct{}

// Name implements Policy.
func (SAAC) Name() string { return "SAAC" }

// Rank implements Policy.
func (SAAC) Rank(f *CachedFile, now int64) float64 {
	idle := since(now, f.LastRef).Hours()
	if idle < 0 {
		idle = 0
	}
	return idle * float64(f.Size) / float64(1+f.Refs)
}

// Weight implements AgedPolicy: size over the reference count, which a
// touch changes — the cache refiles the file on every touch.
func (SAAC) Weight(f *CachedFile) float64 { return float64(f.Size) / float64(1+f.Refs) }

// Aging implements AgedPolicy: the idle time in hours, a negative one
// as 0.
func (SAAC) Aging(age int64) float64 { return max(time.Duration(age).Hours(), 0) }

// AgingMonotone implements AgedPolicy: the aging curve is the idle time.
func (SAAC) AgingMonotone() bool { return true }

// OPT is the clairvoyant bound: evict the file whose next reference is
// farthest in the future (never-referenced files first, largest first
// among them). It needs the full future reference string, which Smith
// noted makes the best algorithms unrealisable online (§2.3).
type OPT struct {
	future *FutureIndex
}

// NewOPT builds the offline policy over a prepared future index.
func NewOPT(future *FutureIndex) *OPT { return &OPT{future: future} }

// Name implements Policy.
func (*OPT) Name() string { return "OPT" }

// Rank implements Policy: seconds from now to the file's first
// reference after its last one — Key's instant, so the scan orders files
// as the heap does. In a forward replay that reference is at or after
// now, since a reference to a resident file touches it; one pending at
// now, later in a same-instant burst, is due at once, where a reference
// strictly after now would miss it and rank the file dead.
func (o *OPT) Rank(f *CachedFile, now int64) float64 {
	next, ok := o.future.NextAfter(f.ID, f.LastRef)
	if !ok {
		return optDead + float64(f.Size)
	}
	return since(next, now).Seconds()
}

// optDead ranks files that are never referenced again: always safer to
// evict than any live file; among dead files prefer the biggest. The
// 1e12 base exceeds any realistic next-use distance in seconds (and any
// Unix timestamp, so heap keys order the same way) while staying small
// enough that the size term survives float64 rounding.
const optDead = 1e12

// Key implements KeyedPolicy: farthest next reference evicts first. A
// resident file's next reference cannot lie between its last touch and
// the replay clock — a reference to a resident file is a touch — so the
// absolute next-reference time recorded at touch time stays the file's
// true next reference until it is touched again, making OPT's victim
// ordering time-invariant during a forward replay.
func (o *OPT) Key(f *CachedFile) float64 {
	next, ok := o.future.NextAfter(f.ID, f.LastRef)
	if !ok {
		return optDead + float64(f.Size)
	}
	return timeKey(next)
}

// FutureRows is the immutable half of a future index: every reference
// time of a prepared, time-sorted access list, as compressed rows — one
// flat array of instants, grouped by file and in trace order within a
// file, with per-file row offsets. File IDs are dense, so the hottest
// OPT operations never touch a map, and a build allocates two slices
// however many files there are. Nothing ever writes the rows after the
// build, so any number of replays — concurrent ones too — may share
// them, each through its own Index.
type FutureRows struct {
	times []int64 // UnixNano reference instants, file by file
	off   []int   // FileID -> start of its row in times; off[id+1] ends it
}

// NewFutureRows builds the rows from accesses, which must be
// time-sorted. Negative IDs, which no replay can reference, are skipped.
func NewFutureRows(accs []Access) *FutureRows {
	n := idBound(accs)
	r := &FutureRows{off: make([]int, n+1)}
	for i := range accs {
		if id := accs[i].FileID; id >= 0 {
			r.off[id+1]++
		}
	}
	for id := range n {
		r.off[id+1] += r.off[id]
	}
	r.times = make([]int64, r.off[n])
	fill := make([]int, n)
	copy(fill, r.off)
	for i := range accs {
		if id := accs[i].FileID; id >= 0 {
			r.times[fill[id]] = accs[i].Time.UnixNano()
			fill[id]++
		}
	}
	return r
}

// Index returns a fresh replay view of the rows: its own cursors, every
// one at the start of its file's row.
func (r *FutureRows) Index() *FutureIndex {
	pos := make([]int, len(r.off)-1)
	copy(pos, r.off)
	return &FutureIndex{times: r.times, off: r.off, pos: pos}
}

// FutureIndex answers "when is file f next referenced after t" for one
// forward replay: shared FutureRows plus a per-file replay cursor into
// them.
type FutureIndex struct {
	times []int64 // the rows' instants, shared
	off   []int   // the rows' offsets, shared
	pos   []int   // FileID -> replay cursor, an index into times
}

// NewFutureIndex builds rows from accesses, which must be time-sorted,
// and returns a replay view of them; replays of one string can share
// one NewFutureRows instead.
func NewFutureIndex(accs []Access) *FutureIndex { return NewFutureRows(accs).Index() }

// NextAfter reports the first reference to file strictly after the
// UnixNano instant t. The query instants must be non-decreasing per file
// (true during a forward replay), letting the index advance a cursor
// instead of searching.
func (x *FutureIndex) NextAfter(file int, t int64) (int64, bool) {
	if file < 0 || file >= len(x.pos) {
		return 0, false
	}
	i, end := x.pos[file], x.off[file+1]
	for i < end && x.times[i] <= t {
		i++
	}
	x.pos[file] = i
	if i >= end {
		return 0, false
	}
	return x.times[i], true
}
