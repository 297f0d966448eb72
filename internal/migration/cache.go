package migration

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"filemig/internal/trace"
	"filemig/internal/units"
)

// Access is one reference in the replayed string: the inputs the cache
// simulator and the offline policies need. FileID and DirID must be the
// dense non-negative identifiers AccessesFromRecords assigns — every
// replay structure is a FileID-indexed slice, so a negative ID is a
// programming error (the simulators reject it loudly rather than
// corrupting an index). The cache replays Time as a UnixNano instant, so
// it must lie within the years 1678–2262.
type Access struct {
	Time   time.Time
	FileID int
	Size   units.Bytes
	Write  bool
	DirID  int // namespace directory, for prefetch experiments
}

// AccessesFromRecords converts trace records (time-sorted, errors skipped)
// into an access string, assigning dense file IDs by MSS path and
// directory IDs by the path's directory prefix. Directory derivation is
// the interner's, shared with the core analysis: a root-level file lives
// in "/" (historically this builder gave each root file a singleton
// directory named after itself; generated traces have no root files, so
// only hand-built ones can observe the unification).
func AccessesFromRecords(recs []trace.Record) []Access {
	return AccessesFromRecordsInterned(trace.NewInterner(), recs)
}

// AccessesFromRecordsInterned is AccessesFromRecords through a caller-
// supplied interner, so several conversions (or a conversion and other
// per-path state) share one path table instead of each building its own.
// File and directory IDs are the interner's: passing a fresh interner
// reproduces AccessesFromRecords' historical first-seen numbering, while
// a pre-warmed interner keeps IDs stable across calls.
func AccessesFromRecordsInterned(in *trace.Interner, recs []trace.Record) []Access {
	out := make([]Access, 0, len(recs))
	for i := range recs {
		out = AppendAccessInterned(in, out, &recs[i])
	}
	return out
}

// AppendAccessInterned appends one record's access to dst through in,
// skipping error records — the record-at-a-time form of
// AccessesFromRecordsInterned, for callers consuming a trace stream
// without materializing it.
func AppendAccessInterned(in *trace.Interner, dst []Access, r *trace.Record) []Access {
	if !r.OK() {
		return dst
	}
	id := in.Intern(r.MSSPath)
	return append(dst, Access{
		Time:   r.Start,
		FileID: int(id),
		Size:   r.Size,
		Write:  r.Op == trace.Write,
		DirID:  int(in.Dir(id)),
	})
}

// Prefetcher proposes extra files to stage in alongside a demand fetch.
type Prefetcher interface {
	// Prefetch returns file IDs to load after the given demand access.
	Prefetch(a Access) []int
}

// CacheConfig configures one cache-simulation run.
type CacheConfig struct {
	Capacity units.Bytes
	Policy   Policy
	// Prefetch, when non-nil, stages additional files on each demand miss
	// (§6: use idle resources to prefetch files that might be read soon).
	Prefetch Prefetcher
}

// CacheResult summarises a run. The paper's figure of merit is the read
// miss ratio: every read miss stalls a human for a tape fetch, while
// writes always land in the cache (§6: humans wait for reads, computers
// wait for writes).
type CacheResult struct {
	Policy       string
	Capacity     units.Bytes
	Accesses     int64
	Reads        int64
	ReadHits     int64
	ReadMisses   int64
	WriteInserts int64
	Evictions    int64
	// StreamThroughs counts accesses to files that cannot be resident:
	// bigger than the whole cache, or rewrites that grew a file beyond it.
	StreamThroughs int64
	BytesMissed    units.Bytes
	BytesRead      units.Bytes
	Prefetches     int64
	PrefetchHits   int64 // read hits on files present only due to prefetch
}

// MissRatio is read misses over reads.
func (r CacheResult) MissRatio() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.ReadMisses) / float64(r.Reads)
}

// ByteMissRatio is missed bytes over read bytes.
func (r CacheResult) ByteMissRatio() float64 {
	if r.BytesRead == 0 {
		return 0
	}
	return float64(r.BytesMissed) / float64(r.BytesRead)
}

// ExtraTapeLatency is the canonical added human wait of a read miss —
// the tape path versus the disk path to first byte (Table 3: ~104 s
// silo vs ~30 s disk) — the extraLatency the §2.3 person-minutes
// figures use.
const ExtraTapeLatency = 75 * time.Second

// PersonMinutesPerDay estimates the §2.3 human-cost metric: every read
// miss costs the requesting scientist the extra tape latency over disk.
func (r CacheResult) PersonMinutesPerDay(days float64, extraLatency time.Duration) float64 {
	if days <= 0 {
		return 0
	}
	return float64(r.ReadMisses) * extraLatency.Minutes() / days
}

// residentFile is one resident's slot. A cache runs one victim path, so
// the keyed heap and the aged index share key and slot rather than each
// widening every slot with fields the other never reads.
type residentFile struct {
	CachedFile
	prefetched bool          // resident due to prefetch, not yet demanded
	key        float64       // keyed: eviction priority; aged: weight
	slot       int           // keyed: position in Cache.order, -1 off-heap; aged: weight class
	prev, next *residentFile // aged only: neighbours in the class's LastRef-ordered list
}

// evictHeap is the indexed priority heap over resident files: the top is
// the next eviction victim — highest key first, ties to the lowest file
// ID, so victim selection never depends on map iteration order. Each
// resident's slot is its index. The sifts move a hole rather than swap,
// making the comparisons container/heap makes.
type evictHeap []*residentFile

// evictsBefore reports whether a leaves the heap before b.
func evictsBefore(a, b *residentFile) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.ID < b.ID
}

// up moves h[i] toward the root past every parent it evicts before.
func (h evictHeap) up(i int) {
	f := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !evictsBefore(f, h[p]) {
			break
		}
		h[i], h[p].slot = h[p], i
		i = p
	}
	h[i], f.slot = f, i
}

// down moves h[i] toward the leaves past every child that evicts before
// it, and reports whether it moved.
func (h evictHeap) down(i int) bool {
	f, i0 := h[i], i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && evictsBefore(h[r], h[c]) {
			c = r
		}
		if !evictsBefore(h[c], f) {
			break
		}
		h[i], h[c].slot = h[c], i
		i = c
	}
	h[i], f.slot = f, i
	return i > i0
}

// fix restores the order after h[i]'s key changed.
func (h evictHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// push adds f.
func (h *evictHeap) push(f *residentFile) {
	*h = append(*h, f)
	h.up(len(*h) - 1)
}

// remove takes out the resident at index i.
func (h *evictHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	f := q[i]
	q[i], q[n] = q[n], nil
	*h = q[:n]
	if i < n {
		h.fix(i)
	}
	f.slot = -1
}

// Cache is the migration simulator: a finite staging disk in front of the
// tape archive, replaying an access string under a policy.
//
// Residency is a FileID-indexed slice (the access-string builder hands
// out dense IDs), so the per-access lookup is one bounds check and one
// load; evicted residentFile slots are recycled through a free list, so
// a steady-state replay allocates nothing per access. Victim selection
// is the policy's own NextVictim when it implements VictimPolicy (ARC's
// structural dual-list choice), O(log R) when it implements KeyedPolicy
// (its order is maintained in an indexed heap, updated on insert and
// touch), the aged index when it implements AgedPolicy (STP, SAAC,
// adaptive STP: one walk per shrink ranks only the residents a bound
// cannot put below the cut — see shrinkAged), and otherwise a
// deterministic scan that ranks every resident in ascending file ID
// order (Random, third-party policies). Both rank-driven paths collect
// a shrink's whole victim set in a cutSet before evicting it.
// Policies implementing AccessObserver are fed every insert, touch, and
// removal, in replay order.
type Cache struct {
	cfg      CacheConfig
	resident []*residentFile // FileID-indexed; nil when absent
	nres     int
	used     units.Bytes
	res      CacheResult

	keyed   KeyedPolicy    // non-nil when cfg.Policy supports heap ordering
	obs     AccessObserver // non-nil when the policy observes accesses
	victim  VictimPolicy   // non-nil when the policy picks victims itself
	aged    AgedPolicy     // non-nil when the policy's ranks factor into weight × aging
	order   evictHeap
	classes []agedClass  // aged path only: residents by weight class
	inuse   agedOccupied // aged path only: the non-empty classes
	aging   []float64    // aged path only: the aging table, -1 where undrawn
	drawn   uint64       // aged path only: the curve's refit count the table was drawn under
	// oldest is the aged path's oldest resident among classes >= 1 (nil
	// when there is none), unless oldestLost says it left.
	oldest     *residentFile
	oldestLost bool
	live       liveSet         // scan path only: resident IDs
	free       []*residentFile // recycled slots
	ranked     []rankedFile    // scratch: a shrink's cutSet
}

// NewCache builds a cache simulator.
func NewCache(cfg CacheConfig) (*Cache, error) {
	c := &Cache{}
	if err := c.reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// reset readies c for a fresh replay under cfg, as NewCache would build
// it, but keeps every table it has grown: the resident table is cleared
// (each resident goes back on the free list), and the heap, class table,
// aging table, occupied bitmap, live set and cutSet scratch are emptied
// in place. A worker replaying many cells reuses one cache through it.
func (c *Cache) reset(cfg CacheConfig) error {
	if cfg.Capacity <= 0 {
		return fmt.Errorf("migration: capacity must be positive")
	}
	if cfg.Policy == nil {
		return fmt.Errorf("migration: policy required")
	}
	for id, f := range c.resident {
		if f != nil {
			c.free = append(c.free, f)
			c.resident[id] = nil
		}
	}
	clear(c.order)
	clear(c.classes)
	*c = Cache{
		cfg:      cfg,
		resident: c.resident,
		res:      CacheResult{Policy: cfg.Policy.Name(), Capacity: cfg.Capacity},
		order:    c.order[:0],
		classes:  c.classes,
		aging:    c.aging,
		live:     liveSet{sorted: c.live.sorted[:0], pending: c.live.pending[:0], scratch: c.live.scratch[:0]},
		free:     c.free,
		ranked:   c.ranked[:0],
	}
	if kp, ok := cfg.Policy.(KeyedPolicy); ok {
		c.keyed = kp
	} else if ap, ok := cfg.Policy.(AgedPolicy); ok && ap.AgingMonotone() {
		c.aged = ap
		if c.classes == nil {
			t := new(agedTables)
			c.classes, c.aging, c.ranked = t.classes[:], t.aging[:], t.set[:0]
		}
		c.redrawAging()
	}
	// Observer, victim, and capacity capabilities survive a ScanOnly
	// wrapper: ScanOnly exists to disable the keyed and aged paths, not to
	// cut a stateful policy off from the accesses it must see.
	core := policyCore(cfg.Policy)
	if o, ok := core.(AccessObserver); ok {
		c.obs = o
	}
	if v, ok := core.(VictimPolicy); ok {
		c.victim = v
	}
	if ca, ok := core.(CapacityAware); ok {
		ca.SetCapacity(cfg.Capacity)
	}
	return nil
}

// lookup returns the resident entry for a file ID, or nil.
func (c *Cache) lookup(id int) *residentFile {
	if id < 0 || id >= len(c.resident) {
		return nil
	}
	return c.resident[id]
}

// growTo extends a FileID-indexed slice with zero values until index id
// is addressable, in one append — the shared growth idiom for every
// dense-ID table in this package. Given an ID bound n, growTo(s, n-1)
// makes the table at its final length in one allocation.
func growTo[T any](s []T, id int) []T {
	if id >= len(s) {
		s = append(s, make([]T, id+1-len(s))...)
	}
	return s
}

// liveSet maintains the ascending resident-ID list the scan eviction
// paths walk, so a shrink visits residents — not every FileID slot ever
// seen. Inserts are O(1) appends to an unsorted pending buffer; the
// buffer is sorted and merged into the main list only when a scan needs
// it, so insert-heavy replays (big caches, few evictions) never pay a
// per-insert array shift.
type liveSet struct {
	sorted  []int
	pending []int
	scratch []int // retired sorted buffer, reused by the next merge
}

// add registers a newly resident ID.
func (l *liveSet) add(id int) { l.pending = append(l.pending, id) }

// drop unregisters an ID, wherever it currently lives.
func (l *liveSet) drop(id int) {
	if i := sort.SearchInts(l.sorted, id); i < len(l.sorted) && l.sorted[i] == id {
		l.sorted = append(l.sorted[:i], l.sorted[i+1:]...)
		return
	}
	for j, p := range l.pending {
		if p == id {
			l.pending = append(l.pending[:j], l.pending[j+1:]...)
			return
		}
	}
}

// ids returns the resident IDs in ascending order, folding any pending
// inserts in first.
func (l *liveSet) ids() []int {
	if len(l.pending) == 0 {
		return l.sorted
	}
	sort.Ints(l.pending)
	if len(l.sorted) == 0 {
		l.sorted = append(l.sorted, l.pending...)
	} else {
		merged := l.scratch[:0]
		i, j := 0, 0
		for i < len(l.sorted) || j < len(l.pending) {
			if j >= len(l.pending) || (i < len(l.sorted) && l.sorted[i] < l.pending[j]) {
				merged = append(merged, l.sorted[i])
				i++
			} else {
				merged = append(merged, l.pending[j])
				j++
			}
		}
		l.scratch = l.sorted[:0] // retire the old buffer for the next merge
		l.sorted = merged
	}
	l.pending = l.pending[:0]
	return l.sorted
}

// Replay runs the whole access string and returns the result. It sizes
// the resident table — and, through idReserver, the policy's FileID
// tables — for the string's highest FileID first, so no insert grows
// them; negative IDs are left for Step to reject.
func (c *Cache) Replay(accs []Access) CacheResult {
	n := idBound(accs)
	c.resident = growTo(c.resident, n-1)
	if r, ok := policyCore(c.cfg.Policy).(idReserver); ok {
		r.reserveIDs(n)
	}
	for i := range accs {
		c.Step(accs[i])
	}
	return c.Result()
}

// idBound is one past the string's highest FileID: the length of every
// FileID-indexed table over it.
func idBound(accs []Access) int {
	n := 0
	for i := range accs {
		n = max(n, accs[i].FileID+1)
	}
	return n
}

// Step processes a single access. Its time, converted once to a
// UnixNano instant, is the clock every policy call of the step sees.
//
//filemig:hotpath
func (c *Cache) Step(a Access) {
	if a.FileID < 0 {
		panic("migration: negative Access.FileID")
	}
	now := a.Time.UnixNano()
	c.res.Accesses++
	f := c.lookup(a.FileID)
	hit := f != nil
	if a.Write {
		c.res.WriteInserts++
		if hit {
			if a.Size > c.cfg.Capacity {
				// The rewrite grew the file beyond the whole cache: it can
				// no longer be resident and streams through to tape.
				c.remove(f)
				c.res.StreamThroughs++
				return
			}
			// A rewrite may change the file's size; adjust occupancy and
			// evict if the growth overflows the cache.
			c.used += a.Size - f.CachedFile.Size
			f.Size = a.Size
			c.touch(f, now)
			c.shrinkTo(c.cfg.Capacity, now, a.FileID)
			return
		}
		c.insert(a.FileID, a.Size, now, false)
		return
	}
	c.res.Reads++
	c.res.BytesRead += a.Size
	if hit {
		c.res.ReadHits++
		if f.prefetched {
			c.res.PrefetchHits++
			f.prefetched = false
		}
		c.touch(f, now)
		return
	}
	c.res.ReadMisses++
	c.res.BytesMissed += a.Size
	c.insert(a.FileID, a.Size, now, false)
	if c.cfg.Prefetch != nil {
		for _, id := range c.cfg.Prefetch.Prefetch(a) {
			if c.lookup(id) != nil || id == a.FileID {
				continue
			}
			c.res.Prefetches++
			c.insert(id, a.Size, now, true)
		}
	}
}

// touch refreshes a resident file's recency and, under a keyed policy,
// its position in the eviction heap. Policies keyed on insertion time or
// size (FIFO, largest/smallest-first) return an unchanged key on touch,
// making hot-path hits O(1).
func (c *Cache) touch(f *residentFile, now int64) {
	f.LastRef = now
	f.Refs++
	if c.obs != nil {
		c.obs.FileAccessed(&f.CachedFile, now)
	}
	if c.keyed != nil {
		if k := c.keyed.Key(&f.CachedFile); k != f.key {
			f.key = k
			c.order.fix(f.slot)
		}
	} else if c.aged != nil {
		c.agedUnlink(f)
		c.agedLink(f)
	}
}

func (c *Cache) insert(id int, size units.Bytes, now int64, prefetched bool) {
	if size > c.cfg.Capacity {
		// A file bigger than the whole cache can never be resident; it
		// streams through (counts as a miss each read). Only demand
		// accesses count: a prefetch candidate's size is a guess, not a
		// reference.
		if !prefetched {
			c.res.StreamThroughs++
		}
		return
	}
	c.shrinkTo(c.cfg.Capacity-size, now, id)
	var f *residentFile
	if n := len(c.free); n > 0 {
		f = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		f = &residentFile{}
	}
	*f = residentFile{
		CachedFile: CachedFile{
			ID: id, Size: size, Inserted: now, LastRef: now, Refs: 1,
		},
		prefetched: prefetched,
		slot:       -1,
	}
	if id >= len(c.resident) {
		c.resident = growTo(c.resident, id)
	}
	c.resident[id] = f
	c.nres++
	c.used += size
	if c.obs != nil {
		c.obs.FileAccessed(&f.CachedFile, now)
	}
	if c.keyed != nil {
		f.key = c.keyed.Key(&f.CachedFile)
		c.order.push(f)
	} else if c.aged != nil {
		c.agedLink(f)
	} else {
		c.live.add(id)
	}
}

// remove drops a file from the cache without counting an eviction,
// recycling its slot through the free list.
func (c *Cache) remove(f *residentFile) {
	if c.obs != nil {
		c.obs.FileEvicted(&f.CachedFile)
	}
	c.used -= f.CachedFile.Size
	c.resident[f.ID] = nil
	c.nres--
	if c.keyed != nil {
		if f.slot >= 0 {
			c.order.remove(f.slot)
		}
	} else if c.aged != nil {
		c.agedUnlink(f)
	} else {
		c.live.drop(f.ID)
	}
	c.free = append(c.free, f)
}

// shrinkTo evicts policy victims until used <= target. The protected file
// (the one being accessed) is never evicted.
func (c *Cache) shrinkTo(target units.Bytes, now int64, protect int) {
	if c.used <= target {
		return
	}
	switch {
	case c.victim != nil:
		for c.used > target {
			id, ok := c.victim.NextVictim(protect)
			if !ok {
				return // nothing evictable
			}
			f := c.lookup(id)
			if f == nil {
				panic("migration: victim policy chose a non-resident file")
			}
			c.evict(f)
		}
	case c.keyed != nil:
		for c.used > target {
			victim := c.pickHeap(protect)
			if victim == nil {
				return // nothing evictable
			}
			c.evict(victim)
		}
	case c.aged != nil:
		c.shrinkAged(c.used-target, now, protect)
	default:
		c.shrinkScan(c.used-target, now, protect)
	}
}

// evict removes a policy victim and counts the eviction.
func (c *Cache) evict(f *residentFile) {
	c.remove(f)
	c.res.Evictions++
}

// pickHeap returns the heap top, or — when the top is the protected file
// — the better of the root's children, which is where a binary heap keeps
// its second-best element.
func (c *Cache) pickHeap(protect int) *residentFile {
	if len(c.order) == 0 {
		return nil
	}
	if top := c.order[0]; top.ID != protect {
		return top
	}
	switch len(c.order) {
	case 1:
		return nil
	case 2:
		return c.order[1]
	}
	if evictsBefore(c.order[2], c.order[1]) {
		return c.order[2]
	}
	return c.order[1]
}

// rankedFile is a victim candidate paired with its rank at shrink time.
type rankedFile struct {
	f    *residentFile
	rank float64
}

// evictOrder is negative when a evicts before b: higher rank first,
// equal ranks to the lowest file ID — never map iteration order. Ranks
// compare as cmp.Compare orders them, a NaN below every number, so even
// a policy that ranks NaN gets one total order.
func evictOrder(a, b rankedFile) int {
	if c := cmp.Compare(b.rank, a.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.f.ID, b.f.ID)
}

// cutSet is a shrink's victim set under construction: candidates in
// eviction order (evictOrder), cut at the first one whose bytes, with
// every better candidate's, cover the deficit. A candidate after the cut
// can never be a victim — the residents before it already free enough —
// so the set drops it, and a shrink evicts the set in order once every
// resident that could beat the cut has been offered: exactly the prefix
// a full scan of the ranked residents evicts.
type cutSet struct {
	files   []rankedFile
	bytes   units.Bytes // the files' sizes summed
	deficit units.Bytes // used − target, > 0
}

// cut is the rank a resident must reach to join the set: the last file's
// once the set covers the deficit, −Inf before.
func (s *cutSet) cut() float64 {
	if s.bytes < s.deficit {
		return math.Inf(-1)
	}
	return s.files[len(s.files)-1].rank
}

// offer adds f, ranked r. Until the set covers the deficit it only
// collects; the offer that covers it sorts the set, and every later one
// joins in order only if it falls before the cut. Either way it then
// drops every file the ones before it cover the deficit without.
//
//filemig:hotpath
func (s *cutSet) offer(f *residentFile, r float64) {
	x := rankedFile{f, r}
	switch {
	case s.bytes < s.deficit:
		s.files = append(s.files, x)
		if s.bytes += f.Size; s.bytes < s.deficit {
			return
		}
		slices.SortFunc(s.files, evictOrder)
	case evictOrder(x, s.files[len(s.files)-1]) > 0:
		return
	default:
		lo, hi := 0, len(s.files)-1 // x belongs before files[hi]
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); evictOrder(x, s.files[m]) < 0 {
				hi = m
			} else {
				lo = m + 1
			}
		}
		s.files = append(s.files, rankedFile{})
		copy(s.files[lo+1:], s.files[lo:])
		s.files[lo] = x
		s.bytes += f.Size
	}
	n := len(s.files)
	for ; s.bytes-s.files[n-1].f.Size >= s.deficit; n-- {
		s.bytes -= s.files[n-1].f.Size
		s.files[n-1] = rankedFile{}
	}
	s.files = s.files[:n]
}

// evictSet evicts s's files in order — sorting them first if they never
// covered the deficit — and keeps its storage as scratch for the next
// shrink.
func (c *Cache) evictSet(s cutSet) {
	if s.bytes < s.deficit {
		slices.SortFunc(s.files, evictOrder)
	}
	for i := range s.files {
		c.evict(s.files[i].f)
		s.files[i] = rankedFile{}
	}
	c.ranked = s.files[:0]
}

// shrinkScan is the eviction path for policies with no victim-path
// capability (Random, third-party policies, anything under ScanOnly) —
// and the reference the aged index must reproduce victim for victim.
// The clock is fixed for the whole shrink and untouched files' ranks
// cannot move, so every candidate is ranked exactly once and offered to
// one cutSet, which keeps only the candidates up to the cut. The live
// resident-ID list is walked in ascending file ID order, which both
// keeps the victim sequence deterministic and hands stateful policies
// (Random) their rank draws in a reproducible order.
func (c *Cache) shrinkScan(deficit units.Bytes, now int64, protect int) {
	s := cutSet{files: c.ranked[:0], deficit: deficit}
	for _, id := range c.live.ids() {
		if id != protect {
			f := c.resident[id]
			s.offer(f, c.cfg.Policy.Rank(&f.CachedFile, now))
		}
	}
	c.evictSet(s)
}

// Result returns the statistics so far.
func (c *Cache) Result() CacheResult { return c.res }

// TotalReferencedBytes sums the distinct files' sizes (last size seen per
// file), i.e. the tertiary-store footprint of the access string. File IDs
// are dense, so the last-size table is a flat slice; unreferenced IDs
// stay zero and contribute nothing to the sum.
func TotalReferencedBytes(accs []Access) units.Bytes {
	sizes := make([]units.Bytes, idBound(accs))
	for _, a := range accs {
		sizes[a.FileID] = a.Size
	}
	var t units.Bytes
	for _, s := range sizes {
		t += s
	}
	return t
}

// DirPrefetcher prefetches the most recent other files of the directory
// being read — the paper's observation that a researcher reading day 1 of
// a model run will usually want day 2 (§5.2.1). Both indexes are flat
// slices over the dense file and directory ID spaces.
type DirPrefetcher struct {
	byDir [][]int // DirID -> file IDs in first-seen order
	pos   []int   // FileID -> index within its directory list; -1 unseen
	Count int     // how many neighbours to prefetch (default 1)
}

// NewDirPrefetcher indexes the access string's directory structure.
func NewDirPrefetcher(accs []Access, count int) *DirPrefetcher {
	if count < 1 {
		count = 1
	}
	files, dirs := 0, 0
	for i := range accs {
		files, dirs = max(files, accs[i].FileID+1), max(dirs, accs[i].DirID+1)
	}
	p := &DirPrefetcher{Count: count, byDir: make([][]int, dirs), pos: make([]int, files)}
	for i := range p.pos {
		p.pos[i] = -1 // unseen
	}
	for _, a := range accs {
		if p.pos[a.FileID] < 0 {
			p.pos[a.FileID] = len(p.byDir[a.DirID])
			p.byDir[a.DirID] = append(p.byDir[a.DirID], a.FileID)
		}
	}
	return p
}

// Prefetch implements Prefetcher: the next Count files of the same
// directory in first-reference order.
func (p *DirPrefetcher) Prefetch(a Access) []int {
	if a.FileID < 0 || a.FileID >= len(p.pos) || p.pos[a.FileID] < 0 ||
		a.DirID < 0 || a.DirID >= len(p.byDir) {
		return nil
	}
	files := p.byDir[a.DirID]
	i := p.pos[a.FileID]
	var out []int
	for k := 1; k <= p.Count && i+k < len(files); k++ {
		out = append(out, files[i+k])
	}
	return out
}
