package migration

import (
	"time"

	"filemig/internal/trace"
)

// This file implements the §6 coalescing analysis: "About one third of
// all requests came within eight hours of another request for the same
// file. Often, these accesses are generated by batch job scripts ... the
// Cray must make a separate request to the MSS for each script; it has no
// way of keeping track of multiple references to the same file. Better
// integration of the MSS with the Cray would fix this problem."
//
// The report's §6 line does not come from here: core counts it at the
// analysis's dedup window inside its per-file transition, on every
// analysis path, with no record kept (core.Report.Coalesce). This
// record-level scan is the window sweep of migsim -coalesce, which
// needs the records anyway, and the reference core's count is tested
// against.

// CoalesceResult reports how much of the request stream a Cray-side
// request cache with the given window would absorb.
type CoalesceResult struct {
	Window     time.Duration
	Requests   int64
	Savable    int64 // requests within the window of a previous same-file request
	BytesSaved int64
}

// SavableFraction is the headline number (§6: ~1/3 at eight hours).
func (r CoalesceResult) SavableFraction() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Savable) / float64(r.Requests)
}

// Coalescer scans traces for requests a Cray-side request cache would
// absorb. It owns a path interner and a FileID-indexed last-request
// table, both reused across runs, so sweeping several windows over the
// same trace interns each path once and the steady-state scan loop
// allocates nothing per record.
type Coalescer struct {
	in   *trace.Interner
	last []time.Time // FileID -> last request time; zero = unseen this run
}

// NewCoalescer builds a Coalescer with an empty path table.
func NewCoalescer() *Coalescer {
	return &Coalescer{in: trace.NewInterner()}
}

// Run scans a time-sorted trace and counts requests arriving within
// window of any earlier request for the same MSS file. Error records are
// excluded (they reference no file).
func (c *Coalescer) Run(recs []trace.Record, window time.Duration) CoalesceResult {
	// Reset the last-seen table, keeping its storage.
	for i := range c.last {
		c.last[i] = time.Time{}
	}
	res := CoalesceResult{Window: window}
	for i := range recs {
		r := &recs[i]
		if !r.OK() {
			continue
		}
		res.Requests++
		id := c.in.Intern(r.MSSPath)
		c.last = growTo(c.last, int(id))
		if prev := c.last[id]; !prev.IsZero() && r.Start.Sub(prev) <= window {
			res.Savable++
			res.BytesSaved += int64(r.Size)
		}
		c.last[id] = r.Start
	}
	return res
}

// CoalesceSweep evaluates several windows on one pass each through a
// shared Coalescer, so the window-size ablation interns every path once.
func CoalesceSweep(recs []trace.Record, windows []time.Duration) []CoalesceResult {
	c := NewCoalescer()
	out := make([]CoalesceResult, 0, len(windows))
	for _, w := range windows {
		out = append(out, c.Run(recs, w))
	}
	return out
}
