package main

import (
	"bytes"
	"strings"
	"testing"
)

// runsMetric builds a per-rep metric for a comparison.
func runsMetric(name string, runs ...float64) metric { return perRep(name, "s", runs) }

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "ingest_recs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", wall, []float64{1.00, 1.01, 1.02}, []float64{1.01, 1.00, 1.02}, verdictUnchanged},
		{"slower beyond the bound", wall, []float64{1.00, 1.01, 1.02}, []float64{1.20, 1.21, 1.22}, verdictRegressed},
		{"slower within the bound", wall, []float64{1.00, 1.01, 1.02}, []float64{1.05, 1.06, 1.07}, verdictUnchanged},
		{"every run faster", wall, []float64{1.00, 1.01, 1.02}, []float64{0.90, 0.91, 0.92}, verdictImproved},
		{"noisy, overlapping", wall, []float64{1.0, 1.3, 1.6}, []float64{1.1, 1.3, 1.5}, verdictUnresolved},
		{"noisy but fully separated", wall, []float64{2.0, 2.4, 2.8}, []float64{1.0, 1.3, 1.6}, verdictImproved},
		{"one run a side resolves nothing", wall, []float64{1.00}, []float64{0.90}, verdictUnresolved},
		{"one run a side can still regress", wall, []float64{1.00}, []float64{1.20}, verdictRegressed},
		{"higher is better: drop", rate, []float64{100, 101, 102}, []float64{80, 81, 82}, verdictRegressed},
		{"higher is better: gain", rate, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictImproved},
	} {
		got, _ := judge(tc.def, runsMetric(tc.def.Name, tc.a...), runsMetric(tc.def.Name, tc.b...))
		if got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(wall []float64, failed int) *result {
		return &result{Schema: schemaName, Mode: "end_to_end", Workloads: []workloadResult{{
			Name: "scan-large", Attempted: 10, Failed: failed, Correct: failed == 0,
			Metrics: []metric{runsMetric("wall_s", wall...), runsMetric("setup_s", 5, 5, 5)},
		}}}
	}
	base := mk([]float64{1.00, 1.01, 1.02}, 0)
	var out bytes.Buffer
	if code := compareResults(base, mk([]float64{1.01, 1.00, 1.03}, 0), &out); code != 0 {
		t.Errorf("same-code runs: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regression") || strings.Contains(out.String(), verdictRegressed+"\n") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(base, mk([]float64{1.50, 1.51, 1.52}, 0), &out); code != 1 {
		t.Errorf("50 %% slower: exit %d\n%s", code, out.String())
	}
	// More failed operations is a regression even with equal timings.
	out.Reset()
	if code := compareResults(base, mk([]float64{1.00, 1.01, 1.02}, 2), &out); code != 1 {
		t.Errorf("failed operations: exit %d\n%s", code, out.String())
	}
}
