package filemig

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// paperClaim is one row of TestPaperClaims: a numeric claim of the
// paper, the value the paper gives, the grid that measures ours (run
// once per claimSeeds entry), and the tolerance that grid must meet.
type paperClaim struct {
	claim, paper, tolerance string
	spec                    ExperimentSpec
	// check reads one seed's manifest: what it measured, and an error
	// when that is out of tolerance.
	check func(m *ExperimentManifest) (ours string, err error)
}

// claimSeeds are the master seeds every claim is measured at.
var claimSeeds = []int64{1, 7, 1993}

// smithExponents is Smith's ablation axis, as migsim -stp-sweep runs it.
var smithExponents = []float64{0, 0.5, 1, 1.4, 2, 4}

// TestPaperClaims asserts the paper's numeric claims, one table row
// each, at every seed in claimSeeds.
func TestPaperClaims(t *testing.T) {
	claims := []paperClaim{{
		claim: "Smith's STP exponent: K = 1.4 minimises read misses",
		paper: "K = 1.4",
		tolerance: "best K is 1 or 1.4 (never 0, 0.5, 2 or 4); STP^1.4 within 0.25 pp of the best; " +
			"K = 1.4 best at 1 % cache",
		spec: ExperimentSpec{Name: "smith-k", Scenarios: []string{"paper-1993"}, Scale: 0.005,
			STPExponents: smithExponents, Capacities: []float64{0.01, 0.02, 0.05}},
		check: checkSmithK,
	}}
	for _, c := range claims {
		for _, seed := range claimSeeds {
			spec := c.spec
			spec.Seed = seed
			m, err := RunExperiment(&spec)
			if err != nil {
				t.Fatal(err)
			}
			ours, err := c.check(m)
			t.Logf("%s | paper %s | seed %d: %s", c.claim, c.paper, seed, ours)
			if err != nil {
				t.Errorf("%s, seed %d: %v (tolerance: %s)", c.claim, seed, err, c.tolerance)
			}
		}
	}
}

// checkSmithK reads an exponent × capacity grid whose rows follow
// smithExponents: per capacity, the best exponent (the first lowest
// read miss ratio) and STP^1.4's distance from it.
func checkSmithK(m *ExperimentManifest) (string, error) {
	rows := m.Scenarios[0].Policies
	var ours []string
	var errs []string
	for ci, cell := range rows[0].Cells {
		best, k14 := 0, -1
		for i, row := range rows {
			if row.Cells[ci].MissRatio < rows[best].Cells[ci].MissRatio {
				best = i
			}
			if smithExponents[i] == 1.4 {
				k14 = i
			}
		}
		gap := 100 * (rows[k14].Cells[ci].MissRatio - rows[best].Cells[ci].MissRatio)
		k, frac := smithExponents[best], 100*cell.CapacityFraction
		ours = append(ours, fmt.Sprintf("%g %% cache: best K %g, STP^1.4 +%.2f pp", frac, k, gap))
		switch {
		case k != 1 && k != 1.4:
			errs = append(errs, fmt.Sprintf("best K at %g %% cache is %g", frac, k))
		case gap > 0.25:
			errs = append(errs, fmt.Sprintf("STP^1.4 is %.2f pp behind K = %g at %g %% cache", gap, k, frac))
		case frac == 1 && k != 1.4:
			errs = append(errs, fmt.Sprintf("best K at 1 %% cache is %g, not 1.4", k))
		}
	}
	if len(errs) > 0 {
		return strings.Join(ours, "; "), errors.New(strings.Join(errs, "; "))
	}
	return strings.Join(ours, "; "), nil
}
