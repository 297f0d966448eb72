package migration

import (
	"math"
	"math/bits"
	"time"

	"filemig/internal/units"
)

// AgedPolicy is an optional Policy capability for rank-crossing policies
// whose rank factors into a per-file weight and a shared aging curve:
//
//	Rank(f, now) = Weight(f) × Aging(now − f.LastRef)
//
// to within a few ulps, with Weight non-negative and fixed between
// touches, Aging non-decreasing in the age, and every aging factor and
// every rank either zero or a normal finite float64. STP (size ×
// age^K), SAAC (size/(1+refs) × idle) and AdaptiveSTP have this shape.
// Under it the cache keeps residents in an aged index — weight classes,
// each in LastRef order — and picks a shrink's victims in one walk
// (shrinkAged): it calls the policy's own Rank at the shrink's frozen
// clock, keeps the candidates in the scan path's (rank desc, lowest file
// ID) order, and skips every resident a bound proves falls below the
// cut. ScanOnly hides the capability, so it stays the reference.
//
// Rank must also be pure within one shrink: nothing but a touch
// (FileAccessed) may move a resident's rank, so a rank taken at a
// shrink's frozen clock holds for every victim of that shrink, however
// many residents it evicts (FileEvicted) first. The scan path ranks each
// resident once per shrink and relies on the same. The cache tabulates
// Aging, so the curve must stay fixed for the whole replay; AdaptiveSTP,
// whose exponent refits in FileAccessed, tells the cache of each refit.
type AgedPolicy interface {
	Policy
	// Weight returns the time-invariant factor of f's rank.
	Weight(f *CachedFile) float64
	// Aging returns the shared factor of the rank of a file last
	// referenced age nanoseconds before the clock.
	Aging(age int64) float64
	// AgingMonotone reports whether this instance's aging curve honours
	// the contract above; when false the cache keeps the scan path.
	AgingMonotone() bool
}

// agingRefitter is an aged policy whose curve moves during a replay:
// refits changes whenever the curve does, and the cache redraws its
// aging table when it sees a new count.
type agingRefitter interface{ refits() uint64 }

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

// agingBuckets is the aging table's size: ages below 16 ns have a bucket
// each, and every octave above has sixteen, up to the largest int64 age.
const agingBuckets = 16 + 16*59

// agedTables is the aged path's fixed storage, one allocation kept
// across reset: the class lists, the aging table and the cutSet's first
// storage, which holds a typical shrink's candidates without growing.
type agedTables struct {
	classes [agedClasses]agedClass
	aging   [agingBuckets]float64
	set     [32]rankedFile
}

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

// agedClassUpper bounds the weights of class i: 0 for class 0, and for
// i >= 1 the smallest weight of class i+1.
func agedClassUpper(i int) float64 {
	switch {
	case i == 0:
		return 0
	case i >= agedTop:
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(i+agedKeyMin) << agedShift)
}

// agingBucket maps an age in nanoseconds onto its aging-table bucket:
// the age itself below 16 ns (a negative age shares bucket 0), above
// that its octave and the four bits after its leading one.
func agingBucket(age int64) int {
	if age < 16 {
		return int(max(age, 0))
	}
	e := bits.Len64(uint64(age))
	return 16*(e-4) + int(age>>(e-5)&15)
}

// agingBucketTop is the oldest age in bucket b.
func agingBucketTop(b int) int64 {
	if b < 16 {
		return int64(b)
	}
	e, m := b/16+4, b%16
	return int64(uint64(17+m)<<(e-5) - 1)
}

// agedLink files f under its current weight, keeping the class list in
// LastRef order. Replay time almost always moves forward, so the walk
// back from the tail ends at once; an out-of-order Access.Time walks as
// far as it must. A positive-weight file older than the remembered
// oldest resident becomes it.
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
	if f.slot > 0 && !c.oldestLost && (c.oldest == nil || f.LastRef < c.oldest.LastRef) {
		c.oldest = f
	}
}

// agedUnlink takes f out of its class list, and forgets the oldest
// resident if f was it.
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
	if f == c.oldest {
		c.oldest, c.oldestLost = nil, true
	}
}

// agedOldest returns the oldest resident among classes >= 1, or nil. It
// is remembered across shrinks; only after that resident left or was
// touched does it walk the class heads (each list is in LastRef order).
func (c *Cache) agedOldest() *residentFile {
	if c.oldestLost {
		c.oldest, c.oldestLost = nil, false
		for i := c.inuse.below(agedTop); i > 0; i = c.inuse.below(i - 1) {
			if h := c.classes[i].head; c.oldest == nil || h.LastRef < c.oldest.LastRef {
				c.oldest = h
			}
		}
	}
	return c.oldest
}

// agingBound is the aging table's bound for f at clock now: Aging at the
// oldest age of f's bucket, drawn on first use.
//
//filemig:hotpath
func (c *Cache) agingBound(now int64, f *residentFile) float64 {
	b := agingBucket(int64(since(now, f.LastRef)))
	a := c.aging[b]
	if a < 0 {
		a = c.aged.Aging(agingBucketTop(b))
		c.aging[b] = a
	}
	return a
}

// redrawAging clears the aging table: every entry -1, undrawn.
func (c *Cache) redrawAging() {
	for i := range c.aging {
		c.aging[i] = -1
	}
}

// shrinkAged evicts, at clock now, exactly the victims the scan path
// would: the shortest prefix of the residents in (rank desc, lowest file
// ID) order, the protected file aside, whose bytes cover deficit. One
// walk collects them into a cutSet, visiting the occupied classes
// heaviest first, each oldest first, and calls Rank only on a resident
// whose bound reaches the set's cut — anything below the cut can never
// be a victim. With a(h) the aging table's bound for h's age:
//
//	(a) every later file h of class i is no older and lighter than
//	    upper(i), so rank(h) <= upper(i) × a(f) up to rounding; once
//	    that is below the cut, the rest of class i loses;
//	(b) f itself ranks at most weight(f) × a(f), and is skipped when
//	    that is below the cut;
//	(c) no resident of classes >= 1 is older than agedOldest's, so every
//	    file of class i ranks at most upper(i) × a(oldest); once that is
//	    below the cut, class i and every lighter one lose — class 0
//	    (upper 0, all ranks 0) to any positive cut.
//
// The cut only rises as candidates join, and evictions wait until the
// walk ends, so every bound holds for the whole walk; a refit of the
// policy's curve since the table was drawn clears it first. One agedSlack
// (1e-9, millions of ulps) covers each bound's rounding: the ulps by
// which Rank may exceed Weight × Aging, by which math.Pow may fall at a
// bucket's oldest age, and of the bound's own product.
//
//filemig:hotpath
func (c *Cache) shrinkAged(deficit units.Bytes, now int64, protect int) {
	if r, ok := c.aged.(agingRefitter); ok && r.refits() != c.drawn {
		c.drawn = r.refits()
		c.redrawAging()
	}
	s := cutSet{files: c.ranked[:0], deficit: deficit}
	var agingMax float64
	if o := c.agedOldest(); o != nil {
		agingMax = c.agingBound(now, o) * agedSlack
	}
	for i := c.inuse.below(agedTop); i >= 0; i = c.inuse.below(i - 1) {
		upper := agedClassUpper(i)
		if upper*agingMax < s.cut() {
			break // rule (c)
		}
		for f := c.classes[i].head; f != nil; f = f.next {
			a := c.agingBound(now, f) * agedSlack
			if upper*a < s.cut() {
				break // rule (a)
			}
			if f.ID != protect && f.key*a >= s.cut() { // rule (b)
				s.offer(f, c.aged.Rank(&f.CachedFile, now))
			}
		}
	}
	c.evictSet(s)
}

// stpAging is Smith's aging factor: age^k, the age in days as Smith
// measured it, a negative age (a replay stepping back in time) as 0.
func stpAging(age int64, k float64) float64 {
	days := time.Duration(age).Hours() / 24
	if days < 0 {
		days = 0
	}
	return math.Pow(days, k)
}
