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
