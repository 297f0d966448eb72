package migration

import (
	"math"
	"time"
)

// Adaptive-STP tuning constants. The fit rule is a Hill maximum-
// likelihood estimate of the inter-reference gap distribution's tail
// exponent over a sliding window (heavier tail — gaps spreading over
// more decades — pushes the exponent down, weighting size over age,
// exactly the trade §2.3's STP exponent controls).
const (
	stpAdaptWindow = 512       // gaps retained in the sliding window
	stpAdaptRefit  = 64        // accepted gaps between refits
	stpAdaptMinFit = 32        // gaps required before the first refit
	stpAdaptFloor  = time.Hour // gaps below this are session noise, ignored
	stpAdaptPrior  = 1.4       // Smith's exponent, until enough data
	stpAdaptMinK   = 0.5       // clamp: most size-weighted useful STP
	stpAdaptMaxK   = 3.0       // clamp: most recency-weighted useful STP
)

// AdaptiveSTP is STP with its exponent re-fitted online from the
// observed inter-reference gaps: Rank is age(days)^K(t) × size, like
// STP, but K(t) tracks the workload instead of being fixed at Smith's
// 1.4. Every access to a previously seen file yields one gap (kept
// across evictions — the policy's own last-seen table outlives
// residency); gaps under an hour are discarded as intra-session noise.
// Accepted gaps enter a fixed 512-entry sliding window, and every 64
// accepted gaps the exponent is re-fitted by the Hill estimator
//
//	K = n / Σ ln(gᵢ / g_min)
//
// over the window (g_min the window's smallest gap), clamped to
// [0.5, 3]; until 32 gaps have been seen K stays at the 1.4 prior.
//
// The fit consumes nothing but the access sequence — no randomness, no
// wall clock — so two replays of the same string produce the same
// exponent trajectory and the same victims (seeded-deterministic in
// the degenerate sense: there is no seed to vary). Ranks cross over
// time, so AdaptiveSTP is an AgedPolicy, like STP itself: the aged
// index calls this Rank under whatever exponent is current and keeps no
// cross-file state a refit could invalidate.
type AdaptiveSTP struct {
	k    float64
	last []stpAdaptRef           // FileID -> previous reference
	win  [stpAdaptWindow]float64 // ring of ln(gap/floor) for accepted gaps
	seen int                     // accepted gaps ever
	tick int                     // accepted gaps since the last refit
	fits uint64                  // refits that set k
}

// stpAdaptRef is one file's previous reference. The flag, not a zero
// instant, marks a file unseen: UnixNano 0 is 1970-01-01, a real
// instant, and a trace may start at or before it.
type stpAdaptRef struct {
	at   int64 // UnixNano
	seen bool
}

// NewAdaptiveSTP builds an adaptive-STP policy starting at the 1.4
// prior.
func NewAdaptiveSTP() *AdaptiveSTP {
	return &AdaptiveSTP{k: stpAdaptPrior}
}

// Name implements Policy.
func (*AdaptiveSTP) Name() string { return "STP-adapt" }

// reserveIDs implements idReserver.
func (p *AdaptiveSTP) reserveIDs(n int) { p.last = growTo(p.last, n-1) }

// FileAccessed implements AccessObserver: harvest the inter-reference
// gap and periodically refit the exponent.
//
//filemig:hotpath
func (p *AdaptiveSTP) FileAccessed(f *CachedFile, now int64) {
	id := f.ID
	p.last = growTo(p.last, id)
	prev := p.last[id]
	p.last[id] = stpAdaptRef{at: now, seen: true}
	if !prev.seen {
		return
	}
	gap := since(now, prev.at)
	if gap < stpAdaptFloor {
		return
	}
	p.win[p.seen%stpAdaptWindow] = math.Log(gap.Seconds() / stpAdaptFloor.Seconds())
	p.seen++
	p.tick++
	if p.tick >= stpAdaptRefit && p.seen >= stpAdaptMinFit {
		p.tick = 0
		p.refit()
	}
}

// FileEvicted implements AccessObserver: gaps span evictions, nothing
// to do.
func (*AdaptiveSTP) FileEvicted(*CachedFile) {}

// refit recomputes the exponent from the window via the Hill estimator.
func (p *AdaptiveSTP) refit() {
	n := p.seen
	if n > stpAdaptWindow {
		n = stpAdaptWindow
	}
	min := p.win[0]
	for _, v := range p.win[1:n] {
		if v < min {
			min = v
		}
	}
	var sum float64
	for _, v := range p.win[:n] {
		sum += v - min
	}
	if sum <= 0 {
		return // degenerate window (all gaps equal): keep the current fit
	}
	k := float64(n) / sum
	if k < stpAdaptMinK {
		k = stpAdaptMinK
	} else if k > stpAdaptMaxK {
		k = stpAdaptMaxK
	}
	p.k = k
	p.fits++
}

// refits tells the aged index that the aging curve moved (agingRefitter).
func (p *AdaptiveSTP) refits() uint64 { return p.fits }

// Rank implements Policy: Smith's space-time product under the current
// fitted exponent.
func (p *AdaptiveSTP) Rank(f *CachedFile, now int64) float64 {
	return stpAging(int64(since(now, f.LastRef)), p.k) * float64(f.Size)
}

// Weight implements AgedPolicy: the size factor of the product.
func (*AdaptiveSTP) Weight(f *CachedFile) float64 { return float64(f.Size) }

// Aging implements AgedPolicy: age^K under the current fitted exponent.
func (p *AdaptiveSTP) Aging(age int64) float64 { return stpAging(age, p.k) }

// AgingMonotone implements AgedPolicy: the fitted exponent is clamped to
// [0.5, 3], and it only moves in FileAccessed — never inside a shrink —
// so every victim of one shrink is picked under one curve.
func (*AdaptiveSTP) AgingMonotone() bool { return true }
