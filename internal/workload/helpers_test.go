package workload

import (
	"sort"
	"time"

	"filemig/internal/trace"
	"filemig/internal/units"
)

// PaperRequests is the approximate good-reference total (Table 3).
const PaperRequests = 3500000

// IsHoliday reports whether reads are suppressed on trace day d.
func (r *Rhythm) IsHoliday(day int) bool {
	_, ok := r.holiday[day]
	return ok
}

// TotalBytes sums the population's sizes.
func (p *Population) TotalBytes() units.Bytes {
	var t units.Bytes
	for i := range p.Files {
		t += p.Files[i].Size
	}
	return t
}

// MeanSize reports the average file size.
func (p *Population) MeanSize() units.Bytes {
	if len(p.Files) == 0 {
		return 0
	}
	return p.TotalBytes() / units.Bytes(len(p.Files))
}

// dedupPlanInvariant verifies the §5.3 dedup property a plan must satisfy:
// no two same-op accesses within the eight-hour window.
func dedupPlanInvariant(plan []planOp) bool {
	byOp := map[trace.Op][]time.Time{}
	for _, p := range plan {
		byOp[p.op] = append(byOp[p.op], p.at)
	}
	//lint:sorted-ok order-independent predicate: the result is the AND over all ops, no output or state escapes
	for _, ts := range byOp {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
		for i := 1; i < len(ts); i++ {
			if ts[i].Sub(ts[i-1]) < DedupWindow {
				return false
			}
		}
	}
	return true
}
