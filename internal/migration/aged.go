package migration

import (
	"math"
	"time"
)

// AgedPolicy is an optional Policy capability for rank-crossing policies
// whose rank factors into a per-file weight and a shared aging curve:
//
//	Rank(f, now) = Weight(f) × aging(now − f.LastRef)
//
// to within a few ulps, with Weight non-negative and fixed between
// touches, aging non-negative and non-decreasing in the age, and every
// rank either zero or a normal finite float64. STP (size × age^K), SAAC
// (size/(1+refs) × idle) and AdaptiveSTP have this shape. Under it the
// cache keeps residents in an aged index — weight classes, each in
// LastRef order — and picks victims by calling the policy's own Rank at
// the shrink's frozen clock, in the scan path's (rank desc, lowest file
// ID) order, skipping only candidates a bound proves cannot win.
// ScanOnly hides the capability, so it stays the reference.
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
	for at != nil && at.LastRef.After(f.LastRef) {
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
	if f.slot > c.top {
		c.top = f.slot
	}
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
}

// pickAged returns the resident the scan path would evict next at clock
// now — highest Rank, ties to the lowest file ID, never the protected
// file — or nil when nothing is evictable. It walks the classes
// heaviest first, each oldest first, and leaves a class as soon as the
// rest of it provably loses:
//
//	(a) every later file h of the class is no older and lighter than
//	    the class's upper bound, so rank(h) <= rank(f) × upper/weight(f)
//	    up to rounding; once that (with slack) is below the best rank
//	    seen, no h can win or tie;
//	(b) a file no older than an already ranked candidate at least two
//	    classes heavier has a strictly smaller weight (by >= 8/7) and no
//	    larger aging factor, so it strictly loses — provided that
//	    candidate's rank is positive: a rank-0 candidate dominates
//	    nothing, it only ties, and ties go by file ID.
//
//filemig:hotpath
func (c *Cache) pickAged(now time.Time, protect int) *residentFile {
	var best *residentFile
	var bestRank float64
	// Oldest positive-rank candidates ranked so far: far among classes
	// >= i+2 (the rule (b) dominator), near in class i+1.
	var far, near *residentFile
	for c.top > 0 && c.classes[c.top].head == nil {
		c.top--
	}
	for i := c.top; i >= 0; i-- {
		var cur *residentFile
		upper := agedClassUpper(i)
		for f := c.classes[i].head; f != nil; f = f.next {
			if far != nil && !f.LastRef.Before(far.LastRef) {
				break // rule (b)
			}
			if f.ID == protect {
				continue
			}
			r := c.aged.Rank(&f.CachedFile, now)
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
		if near != nil && (far == nil || near.LastRef.Before(far.LastRef)) {
			far = near
		}
		near = cur
	}
	return best
}
