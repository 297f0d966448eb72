package core

import (
	"testing"
	"unsafe"
)

// TestAnalyzeSteadyStateAllocs is the allocation-regression guard for the
// per-record hot path. A warmed Analysis re-fed the same records touches
// only interned IDs, inline array slots and amortised sample appends, so
// the per-record allocation rate must stay far below one: before the
// interner refactor every record paid map inserts, per-file gap appends
// and pointer-cell allocations.
func TestAnalyzeSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression needs the generated fixture")
	}
	res := streamFixture(t)
	recs := res.Records
	a := New(Options{Start: res.Config.Start, Days: res.Config.Days})
	a.AddAll(recs) // warm: interner, arena and CDF capacity all grow here
	perRun := testing.AllocsPerRun(5, func() {
		a.AddAll(recs)
	})
	perRecord := perRun / float64(len(recs))
	// Steady state still appends samples (interCDF, latCDF, dynFiles,
	// gapCDF, hourly series), so slice growth amortises to a handful of
	// allocations per run — not per record.
	if perRecord > 0.02 {
		t.Fatalf("steady-state Add allocates %.4f per record (%.0f per %d-record run), want <= 0.02",
			perRecord, perRun, len(recs))
	}
}

// TestFileStateSize pins the per-file arena slot at the 56 bytes
// fileState's doc comment promises: the arena holds one slot per file
// every path has met, so each added word costs every analysis — the
// daemon and the index-seek scan included — 8 bytes per file.
func TestFileStateSize(t *testing.T) {
	if got := unsafe.Sizeof(fileState{}); got != 56 {
		t.Fatalf("unsafe.Sizeof(fileState{}) = %d, want 56", got)
	}
}
