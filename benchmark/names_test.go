package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"filemig/internal/experiment"
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findMetric returns the named end-to-end metric's definition.
func findMetric(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every name and unit the harness can emit against
// the contract's alphabet and limits.
func TestMetricNames(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Fatalf("%d end-to-end, %d per-layer, %d workloads: outside the limits", len(endToEnd), len(perLayer), len(workloadDefs))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: not in the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or reused name, or why longer than 200", w.Name)
		}
		seen[w.Name] = true
		for _, m := range w.Metrics {
			if _, ok := findMetric(m); !ok {
				t.Errorf("workload %s reports unknown metric %s", w.Name, m)
			}
		}
		// common is exactly what every workload reports.
		for _, c := range common {
			found := false
			for _, m := range w.Metrics {
				found = found || m == c
			}
			if !found {
				t.Errorf("workload %s does not report the common metric %s", w.Name, c)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the harness's
// own tables: the workloads, the end-to-end metrics every workload
// reports (with unit, direction and bound), and the per-layer metrics
// (with unit and direction), all in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, benchmarkJSONFromTables(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, want %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(common) {
		t.Fatalf("%d end-to-end metrics, want the %d every workload reports", len(b.EndToEnd), len(common))
	}
	hasSetup := false
	for i, name := range common {
		d, _ := findMetric(name)
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, got, d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) missing")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, d)
		}
	}
}

// benchmarkJSONFromTables renders BENCHMARK.json from the harness's
// tables; UPDATE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSON writes it.
func benchmarkJSONFromTables(t *testing.T) []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"sh", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, name := range common {
		d, _ := findMetric(name)
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGridPoliciesMatchSpec holds the per-policy metric list to the grid
// spec, and every listed policy to a constructor.
func TestGridPoliciesMatchSpec(t *testing.T) {
	spec, err := experiment.ParseFile(filepath.Join("specs", "grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Policies) != len(gridPolicies) {
		t.Fatalf("spec has %d policies, the table %d", len(spec.Policies), len(gridPolicies))
	}
	for i, p := range gridPolicies {
		if spec.Policies[i] != p.spec {
			t.Errorf("policy %d: spec %q, table %q", i, spec.Policies[i], p.spec)
		}
		if _, err := newGridPolicy(p.spec, nil); err != nil {
			t.Error(err)
		}
	}
	plan, err := experiment.BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cells() != 168 {
		t.Errorf("grid has %d cells, want 168", plan.Cells())
	}
}
