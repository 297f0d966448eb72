package migration

import "strconv"

// LRUK is the LRU-K replacement policy (O'Neil, O'Neil & Weikum,
// SIGMOD '93): evict the file whose K-th most recent reference is
// oldest — backward K-distance — so one-shot scans cannot displace
// files with a proven re-reference history. Files with fewer than K
// recorded references have infinite backward K-distance and evict
// first, oldest last reference first among them; all remaining ties
// resolve to the lowest file ID through the shared (rank, fileID)
// machinery.
//
// Reference history is retained across evictions (the paper's retained
// information), in a flattened FileID-indexed ring of the last K
// reference times, so a file's second cache life starts with its first
// life's history. The ordering is time-invariant between touches, so
// LRUK implements KeyedPolicy and victims come from the indexed heap;
// LRUK{K: 1} reproduces plain LRU exactly.
type LRUK struct {
	k    int
	hist []int64 // fileID*k+i ring slots of recent UnixNano reference instants
	n    []int32 // FileID -> references recorded
}

// NewLRUK builds an LRU-K policy; k must be at least 1.
func NewLRUK(k int) *LRUK {
	if k < 1 {
		panic("migration: LRU-K depth must be >= 1")
	}
	return &LRUK{k: k}
}

// Name implements Policy.
func (p *LRUK) Name() string { return "LRU-" + strconv.Itoa(p.k) }

// reserveIDs implements idReserver.
func (p *LRUK) reserveIDs(n int) {
	p.n = growTo(p.n, n-1)
	p.hist = growTo(p.hist, n*p.k-1)
}

// FileAccessed implements AccessObserver: record the reference time in
// the file's ring.
//
//filemig:hotpath
func (p *LRUK) FileAccessed(f *CachedFile, now int64) {
	id := f.ID
	p.n = growTo(p.n, id)
	p.hist = growTo(p.hist, (id+1)*p.k-1)
	p.hist[id*p.k+int(p.n[id])%p.k] = now
	p.n[id]++
}

// FileEvicted implements AccessObserver: history is retained, so
// eviction changes nothing.
func (*LRUK) FileEvicted(*CachedFile) {}

// lrukShort bands files with fewer than K references, which evict
// before any full-history file; like optDead the base dwarfs any
// timeKey magnitude.
const lrukShort = 1e12

// Key implements KeyedPolicy: oldest K-th most recent reference evicts
// first; short-history files band above every full-history file,
// ordered by oldest last reference.
func (p *LRUK) Key(f *CachedFile) float64 {
	id := f.ID
	if id < len(p.n) && int(p.n[id]) >= p.k {
		// The slot the next write would claim holds the oldest of the K
		// retained references — the backward K-distance anchor.
		return -timeKey(p.hist[id*p.k+int(p.n[id])%p.k])
	}
	return lrukShort - timeKey(f.LastRef)
}

// Rank implements Policy, identically to Key: the order is
// time-invariant.
func (p *LRUK) Rank(f *CachedFile, _ int64) float64 { return p.Key(f) }
