package migration

import (
	"math"
	"math/bits"
)

// AgedPolicy is an optional Policy capability for rank-crossing policies
// whose rank factors into a per-file weight and a shared aging curve:
//
//	Rank(f, now) = Weight(f) × aging(now − f.LastRef)
//
// to within a few ulps, with Weight non-negative and fixed between
// touches, aging non-decreasing in the age, and every aging factor and
// every rank either zero or a normal finite float64. STP (size ×
// age^K), SAAC (size/(1+refs) × idle) and AdaptiveSTP have this shape.
// Under it the cache keeps residents in an aged index — weight classes,
// each in LastRef order — and picks victims by calling the policy's own
// Rank at the shrink's frozen clock, in the scan path's (rank desc,
// lowest file ID) order, skipping only candidates a bound proves cannot
// win. ScanOnly hides the capability, so it stays the reference.
//
// Rank must also be pure within one shrink: nothing but a touch
// (FileAccessed) may move a resident's rank, so a rank taken at a
// shrink's frozen clock holds for every victim of that shrink, however
// many residents it evicts (FileEvicted) first. The scan path ranks each
// resident once per shrink and relies on the same; the aged index
// memoises each rank for the shrink.
type AgedPolicy interface {
	Policy
	// Weight returns the time-invariant factor of f's rank.
	Weight(f *CachedFile) float64
	// AgingMonotone reports whether this instance's aging curve honours
	// the contract above; when false the cache keeps the scan path.
	AgingMonotone() bool
}

// The aged index files residents by the top bits of their float64
// weight: sign and exponent plus two mantissa bits, four classes per
// octave. Class 0 holds weight <= 0 (zero-size files; every rank is 0);
// classes 1..agedClasses-1 cover 2^-32 .. 2^64 and the two end classes
// absorb anything beyond, which only loosens their bounds.
const (
	agedShift   = 50               // float64 bits below the class key
	agedKeyMin  = (1023 - 32) << 2 // class key of weight 2^-32
	agedClasses = 4*(32+64) + 1    // class 0 + 96 octaves × 4
	agedTop     = agedClasses - 1  // the open-ended heaviest class
	agedSlack   = 1 + 1e-9         // covers Rank's rounding and math.Pow's non-monotone last ulps
)

// agedClass is one weight class: an intrusive list of residents, oldest
// LastRef at the head.
type agedClass struct{ head, tail *residentFile }

// agedOccupied is a bitmap of the non-empty weight classes, so a walk
// jumps from one occupied class to the next instead of stepping through
// the empty ones.
type agedOccupied [(agedClasses + 63) / 64]uint64

// below returns the heaviest occupied class at or below i, or -1.
func (o *agedOccupied) below(i int) int {
	for ; i >= 0; i = i&^63 - 1 {
		if m := o[i>>6] & (uint64(2)<<(i&63) - 1); m != 0 {
			return i&^63 + bits.Len64(m) - 1
		}
	}
	return -1
}

// agedClassOf maps a weight onto its class index.
func agedClassOf(w float64) int {
	if !(w > 0) {
		return 0
	}
	i := int(math.Float64bits(w)>>agedShift) - agedKeyMin + 1
	if i < 1 {
		return 1
	}
	if i > agedTop {
		return agedTop
	}
	return i
}

// agedClassUpper is the exclusive upper bound on the weights of class
// i >= 1: the smallest weight of class i+1.
func agedClassUpper(i int) float64 {
	if i >= agedTop {
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(i+agedKeyMin) << agedShift)
}

// agedLink files f under its current weight, keeping the class list in
// LastRef order. Replay time almost always moves forward, so the walk
// back from the tail ends at once; an out-of-order Access.Time walks as
// far as it must.
//
//filemig:hotpath
func (c *Cache) agedLink(f *residentFile) {
	f.key = c.aged.Weight(&f.CachedFile)
	f.slot = agedClassOf(f.key)
	cl := &c.classes[f.slot]
	at := cl.tail
	for at != nil && at.LastRef > f.LastRef {
		at = at.prev
	}
	f.prev = at
	if at == nil {
		f.next, cl.head = cl.head, f
	} else {
		f.next, at.next = at.next, f
	}
	if f.next == nil {
		cl.tail = f
	} else {
		f.next.prev = f
	}
	c.inuse[f.slot>>6] |= 1 << (f.slot & 63)
}

// agedUnlink takes f out of its class list.
//
//filemig:hotpath
func (c *Cache) agedUnlink(f *residentFile) {
	cl := &c.classes[f.slot]
	if f.prev == nil {
		cl.head = f.next
	} else {
		f.prev.next = f.next
	}
	if f.next == nil {
		cl.tail = f.prev
	} else {
		f.next.prev = f.prev
	}
	f.prev, f.next = nil, nil
	if cl.head == nil {
		c.inuse[f.slot>>6] &^= 1 << (f.slot & 63)
	}
}

// agedShrink opens a shrink at clock now: it retires every rank memoised
// by earlier shrinks and returns agingMax, the aging bound of pickAged's
// rule (c): Rank over weight of the oldest resident among classes >= 1.
// Each class list is in LastRef order, so that resident is one of the
// class heads. With no such resident the bound is 0 and never consulted.
func (c *Cache) agedShrink(now int64) float64 {
	c.shrinks++
	var oldest *residentFile
	for i := c.inuse.below(agedTop); i > 0; i = c.inuse.below(i - 1) {
		if h := c.classes[i].head; oldest == nil || h.LastRef < oldest.LastRef {
			oldest = h
		}
	}
	if oldest == nil {
		return 0
	}
	return c.agedRank(oldest, now) / oldest.key
}

// agedRank is f's Rank at the shrink's frozen clock, computed at most
// once per shrink.
//
//filemig:hotpath
func (c *Cache) agedRank(f *residentFile, now int64) float64 {
	if f.rankedAt != c.shrinks {
		f.rank, f.rankedAt = c.aged.Rank(&f.CachedFile, now), c.shrinks
	}
	return f.rank
}

// olderOf returns the older of two rule (b) dominators, either of which
// may be nil.
func olderOf(far, near *residentFile) *residentFile {
	if near != nil && (far == nil || near.LastRef < far.LastRef) {
		return near
	}
	return far
}

// pickAged returns the resident the scan path would evict next at clock
// now — highest Rank, ties to the lowest file ID, never the protected
// file — or nil when nothing is evictable. Ranks come from the shrink's
// memo (agedRank), so a shrink ranks each resident at most once however
// many victims it picks. It walks the occupied classes heaviest first,
// each oldest first, and leaves a class as soon as the rest of it
// provably loses:
//
//	(a) every later file h of the class is no older and lighter than
//	    the class's upper bound, so rank(h) <= rank(f) × upper/weight(f)
//	    up to rounding; once that (with slack) is below the best rank
//	    seen, no h can win or tie;
//	(b) a file no older than an already ranked candidate at least two
//	    classes heavier has a strictly smaller weight (by >= 8/7) and no
//	    larger aging factor, so it strictly loses — provided that
//	    candidate's rank is positive: a rank-0 candidate dominates
//	    nothing, it only ties, and ties go by file ID;
//	(c) no positive-weight resident is older than the one agingMax was
//	    taken from (agedShrink), so every file of class i >= 1 ranks at
//	    most upper(i) × agingMax up to rounding; once that (with slack)
//	    is below the best rank, class i and every lighter one lose, and
//	    class 0 (all ranks 0) loses to any positive best rank. Evictions
//	    only remove residents, so one bound serves the whole shrink.
//
// One agedSlack (1e-9, millions of ulps) covers each rounding step: in
// (a) the ulps of rank(f) and rank(h) against the contract's product;
// in (c) the ulps by which agingMax — a rank over a weight, one more
// rounded division — may sit below the oldest file's true aging factor,
// and the ulps by which rank(h) may sit above its own product, hence
// slack squared.
//
//filemig:hotpath
func (c *Cache) pickAged(now int64, protect int, agingMax float64) *residentFile {
	var best *residentFile
	var bestRank float64
	// Oldest positive-rank candidates ranked so far: far among classes
	// >= i+2 (the rule (b) dominator), near in class i+1.
	var far, near *residentFile
	prev := agedClasses
	for i := c.inuse.below(agedTop); i >= 0; i = c.inuse.below(i - 1) {
		upper := agedClassUpper(i)
		if (i > 0 && upper*agingMax*(agedSlack*agedSlack) < bestRank) || (i == 0 && bestRank > 0) {
			break // rule (c)
		}
		if i < prev-1 { // class i+1 is empty: near is two classes up now
			far, near = olderOf(far, near), nil
		}
		var cur *residentFile
		for f := c.classes[i].head; f != nil; f = f.next {
			if far != nil && f.LastRef >= far.LastRef {
				break // rule (b)
			}
			if f.ID == protect {
				continue
			}
			r := c.agedRank(f, now)
			if best == nil || r > bestRank || (r == bestRank && f.ID < best.ID) {
				best, bestRank = f, r
			}
			if cur == nil && r > 0 {
				cur = f
			}
			if i > 0 && r*(upper/f.key)*agedSlack < bestRank {
				break // rule (a)
			}
		}
		far, near = olderOf(far, near), cur
		prev = i
	}
	return best
}
