package experiment

import (
	"context"
	"runtime"
	"testing"
)

// benchGridSpec is a copy of the benchmark's 168-cell grid
// (benchmark/specs/grid.json): four scenarios × the 14 tournament
// policies × three capacities, at the benchmark's scale and seed.
func benchGridSpec() *Spec {
	return &Spec{
		Name:      "benchmark-grid",
		Scenarios: []string{"paper-1993", "diurnal-interactive", "checkpoint-restart", "archive-coldscan"},
		Scale:     0.004,
		Seed:      1993,
		Days:      90,
		Policies: []string{"stp:1.4", "stp:1", "lru", "fifo", "saac", "largest-first", "smallest-first",
			"random", "opt", "arc", "lruk:2", "gdsf", "cost", "stp-adapt"},
		Capacities: []float64{0.01, 0.02, 0.05},
		Workers:    1,
	}
}

// TestGridAllocs pins what one serial run of the benchmark grid
// allocates. Every table the grid keeps is sized once from a bound it
// already knows — the access string from the generator's plan, the
// policies' FileID tables from the replay's highest ID, the generator's
// per-file plan from reused scratch, one future index per source — so a
// table left to grow by append, or rebuilt per cell, shows up here as
// bytes or mallocs past the budget; so does a namespace that gives each
// path its own string, or a burst packer that makes its offsets per
// hour, or a plan that gives each local path its own string. Measured
// at 14.5 MB and 3.4 k mallocs a run (39.9 MB and 80.4 k before the
// tables were sized, 14.9 MB and 43.9 k before the namespace's paths
// shared an arena and the packer a scratch slice, 14.6 MB and 21.5 k
// before the plan's local and error paths did).
func TestGridAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations skew TotalAlloc")
	}
	if testing.Short() {
		t.Skip("replays the 168-cell benchmark grid")
	}
	const (
		maxBytes   = 31 << 19 // 15.5 MB
		maxMallocs = 3_600
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(context.Background(), benchGridSpec()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("one serial grid run: %.1f MB in %d mallocs", float64(bytes)/(1<<20), mallocs)
	if bytes > maxBytes {
		t.Errorf("the grid allocates %.1f MB a run, want <= %.1f MB", float64(bytes)/(1<<20), float64(maxBytes)/(1<<20))
	}
	if mallocs > maxMallocs {
		t.Errorf("the grid makes %d mallocs a run, want <= %d", mallocs, maxMallocs)
	}
}
