package migration

import (
	"math/bits"
	"strconv"
	"time"

	"filemig/internal/units"
)

// GreedyDual is the shared greedy-dual core behind GDSF and the
// cost-aware policy (Cao & Irani's GreedyDual-Size, with Cherkasova's
// frequency term): every resident file carries a priority
//
//	H(f) = L + Refs(f) · ⌊cost(f) · scale / size(f)⌋
//
// recomputed on each access, where L is the inflation clock — raised to
// the departing file's priority on every eviction, so newly admitted
// files compete against the current working set rather than against
// history. The file with the lowest H evicts first (ties to the lowest
// file ID).
//
// All arithmetic is exact unsigned 64-bit integer: the fixed-point
// scale keeps the cost/size quotient from flooring to zero, division
// truncates, and products saturate at 2^64-1 — so replays are
// byte-identical on every platform and worker count. The float64 image
// of H used for heap keys can collide above 2^53; a collision is just a
// tie and resolves to the lowest file ID, deterministically. Priorities
// change only when a file is accessed (the clock advances between
// accesses but touches nothing resident), so the order is
// time-invariant and GreedyDual implements KeyedPolicy.
type GreedyDual struct {
	name     string
	scale    uint64
	missCost func(size units.Bytes) uint64
	clock    uint64   // L: the inflation clock
	h        []uint64 // FileID -> priority at last access
}

// gdsfScale is the GDSF fixed-point scale: with unit cost the term is
// ⌊2^40/size⌋·Refs, nonzero for any realistic file size (< 2^40 bytes).
const gdsfScale = 1 << 40

// costScale is the cost-aware fixed-point scale: miss costs are
// microseconds (≥ 75e6), so 2^20 headroom keeps the quotient exact
// enough without overflowing the 64-bit product.
const costScale = 1 << 20

// DefaultTapeRateMBps is the cost-aware policy's default transfer rate:
// the silo's observed end-to-end rate (§5.1.1, Table 1 — 2 MB/s against
// the 3 MB/s peak; device.SiloTape3480.ObservedRate, restated here
// because the migration layer does not import the device models).
const DefaultTapeRateMBps = 2

// NewGDSF builds greedy-dual-size-frequency: unit miss cost, so the
// priority is Refs/size on the inflating clock — frequency-weighted
// favouritism for small files.
func NewGDSF() *GreedyDual {
	return &GreedyDual{
		name:     "GDSF",
		scale:    gdsfScale,
		missCost: func(units.Bytes) uint64 { return 1 },
	}
}

// NewCostAware builds the §2.3-priced greedy-dual policy: a miss costs
// the extra tape latency (ExtraTapeLatency, the human wait for a tape
// mount) plus the transfer time of the file's bytes at rateMBps
// megabytes per second, in exact integer microseconds — one megabyte
// per second is one byte per microsecond. rateMBps must be at least 1;
// DefaultTapeRateMBps is the calibrated default.
func NewCostAware(rateMBps int) *GreedyDual {
	if rateMBps < 1 {
		panic("migration: cost-aware transfer rate must be >= 1 MB/s")
	}
	rate := uint64(rateMBps)
	return &GreedyDual{
		name:  "cost:" + strconv.Itoa(rateMBps),
		scale: costScale,
		missCost: func(size units.Bytes) uint64 {
			return uint64(ExtraTapeLatency/time.Microsecond) + uint64(size)/rate
		},
	}
}

// Name implements Policy.
func (p *GreedyDual) Name() string { return p.name }

// satMul64 multiplies, saturating at 2^64-1.
func satMul64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return ^uint64(0)
	}
	return lo
}

// satAdd64 adds, saturating at 2^64-1.
func satAdd64(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// reserveIDs implements idReserver.
func (p *GreedyDual) reserveIDs(n int) { p.h = growTo(p.h, n-1) }

// FileAccessed implements AccessObserver: recompute the file's priority
// against the current clock.
//
//filemig:hotpath
func (p *GreedyDual) FileAccessed(f *CachedFile, _ int64) {
	size := uint64(f.Size)
	if size == 0 {
		size = 1
	}
	term := satMul64(satMul64(p.missCost(f.Size), p.scale)/size, uint64(f.Refs))
	p.h = growTo(p.h, f.ID)
	p.h[f.ID] = satAdd64(p.clock, term)
}

// FileEvicted implements AccessObserver: inflate the clock to the
// departing priority, keeping L monotone even when protection skips the
// true minimum.
//
//filemig:hotpath
func (p *GreedyDual) FileEvicted(f *CachedFile) {
	if f.ID < len(p.h) && p.h[f.ID] > p.clock {
		p.clock = p.h[f.ID]
	}
}

// Key implements KeyedPolicy: lowest priority evicts first.
func (p *GreedyDual) Key(f *CachedFile) float64 {
	if f.ID < len(p.h) {
		return -float64(p.h[f.ID])
	}
	return 0
}

// Rank implements Policy, identically to Key: priorities move only on
// access. Outside the cache's hook-driven replay every file scores
// zero and the order degrades to file-ID order.
func (p *GreedyDual) Rank(f *CachedFile, _ int64) float64 { return p.Key(f) }
