package migration

import "filemig/internal/units"

// ARC list tags. The zero value (arcNone) means "in no list", so the
// dense entry arena can grow with zero values.
const (
	arcNone int8 = iota
	arcT1        // resident, referenced exactly once since entering
	arcT2        // resident, referenced at least twice
	arcB1        // ghost: recently evicted from T1 (recency history)
	arcB2        // ghost: recently evicted from T2 (frequency history)
)

// arcEntry is one file's node in the intrusive doubly-linked ARC lists.
// prev/next are file IDs (-1 terminates); they are meaningful only while
// list != arcNone. size remembers the file's bytes as last seen, so
// ghosts keep the size they were evicted at.
type arcEntry struct {
	list       int8
	prev, next int32
	size       units.Bytes
}

// arcQueue is one of the four ARC lists: head is the MRU end, tail the
// LRU end, bytes the list's total remembered size.
type arcQueue struct {
	head, tail int32
	bytes      units.Bytes
}

// ARC is adaptive replacement caching (Megiddo & Modha, FAST '03) sized
// in bytes to match the simulator's capacity model: the resident set is
// split into a recency list T1 (files referenced once) and a frequency
// list T2 (files referenced again), with ghost lists B1/B2 remembering
// recently evicted IDs. A hit in B1 means the recency list was too
// small and grows the byte target for T1; a hit in B2 shrinks it — the
// policy continuously tunes itself between LRU and LFU.
//
// Deviations from the paper, forced by the simulator's shape and all
// deterministic:
//
//   - Sizing is in bytes, not uniform pages: list bounds, the target,
//     and the adaptation step all use file sizes, with the adaptation
//     ratio B2/B1 (or B1/B2) computed in integer byte arithmetic.
//   - The cache shrinks before it admits a missed file, so a ghost hit
//     adjusts the target after the eviction it triggered, not before —
//     the adaptation lags one eviction behind the paper's REPLACE.
//   - Multi-victim shrinks (variable file sizes) repeat the single
//     T1-vs-T2 choice per victim.
//
// ARC implements VictimPolicy — the dual-list choice is structural and
// cannot be expressed as a frozen rank order — plus AccessObserver and
// CapacityAware. Rank is advisory only (LRU order biased toward the
// currently preferred list) for rank-only consumers; the cache's victim
// path never uses it.
type ARC struct {
	capacity units.Bytes
	target   units.Bytes // adaptive byte target for T1 ("p" in the paper)
	ent      []arcEntry  // FileID-indexed node arena
	t1, t2   arcQueue
	b1, b2   arcQueue
}

// NewARC builds an ARC policy. The capacity (list bounds and adaptation
// clamp) arrives via SetCapacity, which NewCache calls before replay.
func NewARC() *ARC {
	p := &ARC{}
	for _, q := range []*arcQueue{&p.t1, &p.t2, &p.b1, &p.b2} {
		q.head, q.tail = -1, -1
	}
	return p
}

// Name implements Policy.
func (*ARC) Name() string { return "ARC" }

// SetCapacity implements CapacityAware.
func (p *ARC) SetCapacity(capacity units.Bytes) { p.capacity = capacity }

// reserveIDs implements idReserver.
func (p *ARC) reserveIDs(n int) { p.ent = growTo(p.ent, n-1) }

// queue maps a list tag to its queue.
func (p *ARC) queue(list int8) *arcQueue {
	switch list {
	case arcT1:
		return &p.t1
	case arcT2:
		return &p.t2
	case arcB1:
		return &p.b1
	case arcB2:
		return &p.b2
	}
	panic("migration: bad ARC list tag")
}

// pushMRU inserts id at the MRU end of list with the given size.
func (p *ARC) pushMRU(list int8, id int, size units.Bytes) {
	q := p.queue(list)
	e := &p.ent[id]
	e.list, e.size = list, size
	e.prev, e.next = -1, q.head
	if q.head >= 0 {
		p.ent[q.head].prev = int32(id)
	}
	q.head = int32(id)
	if q.tail < 0 {
		q.tail = int32(id)
	}
	q.bytes += size
}

// unlink removes id from whatever list holds it.
func (p *ARC) unlink(id int) {
	e := &p.ent[id]
	q := p.queue(e.list)
	if e.prev >= 0 {
		p.ent[e.prev].next = e.next
	} else {
		q.head = e.next
	}
	if e.next >= 0 {
		p.ent[e.next].prev = e.prev
	} else {
		q.tail = e.prev
	}
	q.bytes -= e.size
	e.list = arcNone
}

// FileAccessed implements AccessObserver: the ARC case analysis.
//
//filemig:hotpath
func (p *ARC) FileAccessed(f *CachedFile, _ int64) {
	id := f.ID
	p.ent = growTo(p.ent, id)
	switch p.ent[id].list {
	case arcT1, arcT2:
		// Repeated reference (touch, or a rewrite syncing a new size):
		// promote to the frequency list's MRU end.
		p.unlink(id)
		p.pushMRU(arcT2, id, f.Size)
	case arcB1:
		// Ghost hit in the recency history: T1 was too small. Grow the
		// target by the ghost's size, scaled up when B2 outweighs B1.
		delta := arcDelta(p.ent[id].size, p.b2.bytes, p.b1.bytes, p.capacity)
		if p.target += delta; p.target > p.capacity {
			p.target = p.capacity
		}
		p.unlink(id)
		p.pushMRU(arcT2, id, f.Size)
	case arcB2:
		// Ghost hit in the frequency history: symmetric shrink.
		delta := arcDelta(p.ent[id].size, p.b1.bytes, p.b2.bytes, p.capacity)
		if p.target -= delta; p.target < 0 {
			p.target = 0
		}
		p.unlink(id)
		p.pushMRU(arcT2, id, f.Size)
	default:
		// Brand-new file: bound the histories (recency side to one
		// capacity, everything to two), then enter the recency list.
		for p.b1.tail >= 0 && p.t1.bytes+p.b1.bytes+f.Size > p.capacity {
			p.unlink(int(p.b1.tail))
		}
		total := p.t1.bytes + p.t2.bytes + p.b1.bytes + p.b2.bytes
		for p.b2.tail >= 0 && total+f.Size > 2*p.capacity {
			total -= p.ent[p.b2.tail].size
			p.unlink(int(p.b2.tail))
		}
		p.pushMRU(arcT1, id, f.Size)
	}
}

// FileEvicted implements AccessObserver: a departing resident becomes a
// ghost in the history list matching where it lived.
//
//filemig:hotpath
func (p *ARC) FileEvicted(f *CachedFile) {
	id := f.ID
	if id >= len(p.ent) {
		return
	}
	switch p.ent[id].list {
	case arcT1:
		size := p.ent[id].size
		p.unlink(id)
		p.pushMRU(arcB1, id, size)
	case arcT2:
		size := p.ent[id].size
		p.unlink(id)
		p.pushMRU(arcB2, id, size)
	}
}

// arcDelta is the adaptation step for a ghost hit of the given size:
// scaled up by the integer ratio of the opposite history's bytes to the
// hit history's when the opposite outweighs it, and clamped to the
// capacity (the largest move the target can usefully make, and an
// overflow guard for extreme size ratios).
func arcDelta(size, opposite, hit, capacity units.Bytes) units.Bytes {
	delta := size
	if hit > 0 && opposite > hit {
		if ratio := opposite / hit; delta > capacity/ratio {
			return capacity
		} else {
			delta *= ratio
		}
	}
	if delta > capacity {
		delta = capacity
	}
	return delta
}

// lruExcept walks a list from its LRU tail and returns the first entry
// that is not the protected file.
func (p *ARC) lruExcept(q *arcQueue, protect int) (int, bool) {
	for id := q.tail; id >= 0; id = p.ent[id].prev {
		if int(id) != protect {
			return int(id), true
		}
	}
	return 0, false
}

// NextVictim implements VictimPolicy: evict the recency list's LRU tail
// while T1 holds more bytes than the adaptive target, otherwise the
// frequency list's — falling back to the other list when the preferred
// one has nothing evictable.
func (p *ARC) NextVictim(protect int) (int, bool) {
	first, second := &p.t2, &p.t1
	if p.t1.bytes > p.target {
		first, second = &p.t1, &p.t2
	}
	if id, ok := p.lruExcept(first, protect); ok {
		return id, true
	}
	return p.lruExcept(second, protect)
}

// arcPreferred biases advisory ranks toward the currently preferred
// list; like optDead it dwarfs any timeKey magnitude.
const arcPreferred = 1e12

// Rank implements Policy, advisory only: within T1 the LRU order is
// insertion order, within T2 it is last-reference order, and the list
// NextVictim currently prefers ranks uniformly higher. Outside the
// cache's hook-driven replay (where FileAccessed never fires) every
// file is unknown and the order degrades to plain LRU.
func (p *ARC) Rank(f *CachedFile, _ int64) float64 {
	list := arcNone
	if f.ID < len(p.ent) {
		list = p.ent[f.ID].list
	}
	preferT1 := p.t1.bytes > p.target
	switch list {
	case arcT1:
		r := -timeKey(f.Inserted)
		if preferT1 {
			r += arcPreferred
		}
		return r
	case arcT2:
		r := -timeKey(f.LastRef)
		if !preferT1 {
			r += arcPreferred
		}
		return r
	}
	return -timeKey(f.LastRef)
}
