package stats_test

import (
	"reflect"
	"testing"

	"filemig/internal/core"
	"filemig/internal/stats"
	"filemig/internal/workload"
)

// TestDominantPeriodsSameFromBothSpectra runs the report's periodicity
// detection (four periods, 15 % collapse) over every named scenario's
// hourly request series and requires the list the fast transform yields to
// be the list the direct DFT yields — the ranking must not notice which
// one summed the powers.
func TestDominantPeriodsSameFromBothSpectra(t *testing.T) {
	for _, sc := range workload.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			cfg := sc.Configure(0.005, 1993)
			if testing.Short() {
				cfg.Days = 120 // the direct DFT takes seconds on two years of hours
			}
			res, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := core.New(core.Options{Start: cfg.Start, Days: cfg.Days})
			a.AddAll(res.Records)
			series := a.Report().HourlyRequests
			got := stats.DominantPeriods(series, 4, 0.15)
			want := stats.RankPeriods(stats.DirectPeriodogram(stats.Detrend(series)),
				float64(len(series))/4, 4, 0.15)
			if len(got) != 4 || !reflect.DeepEqual(got, want) {
				t.Errorf("dominant periods %v, direct DFT ranks %v", got, want)
			}
		})
	}
}

// TestSelfWeightedOverWorkload holds the derived byte-weighted curves of
// Figure 10 to the (size, size) WeightedCDF they replaced, over the
// per-access sizes of a generated trace in record order, per direction.
func TestSelfWeightedOverWorkload(t *testing.T) {
	res, err := workload.Generate(workload.DefaultConfig(0.005, 1993))
	if err != nil {
		t.Fatal(err)
	}
	var sizes [2][]float64
	for i := range res.Records {
		if r := &res.Records[i]; r.OK() {
			sizes[r.Op] = append(sizes[r.Op], float64(r.Size))
		}
	}
	for op, s := range sizes {
		if len(s) < 1000 {
			t.Fatalf("op %d: only %d accesses", op, len(s))
		}
		stats.RequireSameCurve(t, []string{"reads", "writes"}[op], s)
	}
}
