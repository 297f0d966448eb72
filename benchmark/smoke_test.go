package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness binary when the
// harness re-executes itself as the rusage launcher.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == launcherArg {
		os.Exit(launch(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// smokeSizes shrinks every input: scale 0.002 and a 60-day calendar keep
// the O(n²) periodogram (and everything else) out of tier-1's budget.
func smokeSizes() sizes {
	s := defaultSizes()
	s.PipeScale, s.ScanScale, s.GridScale = 0.002, 0.002, 0.002
	s.Days, s.GridDays = 60, 60
	s.BatchRecords = 20
	s.Warmup = false
	return s
}

// TestSmoke runs all four workloads end to end — real processes, pipe,
// listeners — and then the traced mode, at smoke sizes with the minimum
// reps and no warm-up: every output check must pass, no operation may fail, and
// every metric of both tables must come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the cmd/ tools and runs them")
	}
	out := t.TempDir()
	h, err := newHarness(t.Context(), out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	if testing.Verbose() {
		h.progress = os.Stderr
	}
	h.seed, h.seconds, h.sizes = 7, time.Millisecond, smokeSizes()
	if _, err := h.buildTools(); err != nil {
		t.Fatal(err)
	}

	res := &result{Schema: schemaName, Mode: "end_to_end", Seed: h.seed}
	for _, def := range workloadDefs {
		w, err := h.runWorkload(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		wantReps := 1
		if def.Name == "migd-live" {
			wantReps = migdMinReps
		}
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 || w.Reps != wantReps {
			t.Errorf("%s: correct %v, %d of %d operations failed, %d reps", w.Name, w.Correct, w.Failed, w.Attempted, w.Reps)
		}
		if len(w.Metrics) != len(def.Metrics) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(w.Metrics), len(def.Metrics))
		}
		for i, m := range w.Metrics {
			if m.Name != def.Metrics[i] || m.Value <= 0 || m.N == 0 {
				t.Errorf("%s: metric %d = %+v, want a positive %s", w.Name, i, m, def.Metrics[i])
			}
		}
		res.Workloads = append(res.Workloads, *w)
	}
	var stdout bytes.Buffer
	if code := h.report(res, false, &stdout, io.Discard); code != 0 {
		t.Errorf("exit code %d\n%s", code, stdout.String())
	}
	// What -compare reads back must be what was written.
	back, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if code := compareResults(back, res, io.Discard); code != 0 {
		t.Errorf("a result compared with itself: exit %d", code)
	}

	l, err := h.runTraced()
	if err != nil {
		t.Fatal(err)
	}
	layers, err := l.emit()
	if err != nil {
		t.Error(err)
	}
	if l.failed != 0 || len(layers) != len(perLayer) {
		t.Errorf("traced: %d of %d probes failed, %d of %d metrics", l.failed, l.attempted, len(layers), len(perLayer))
	}
	if err := h.writeLayers(l, &result{Schema: schemaName, Mode: "per_layer", Layers: layers}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(out, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []map[string]any
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, s := range spans {
		for _, k := range []string{"id", "parent", "trace", "name", "start_ns", "end_ns"} {
			if _, ok := s[k]; !ok {
				t.Fatalf("span %v lacks %s", s, k)
			}
		}
		if s["name"] == "" || s["trace"] == "" || s["end_ns"].(float64) < s["start_ns"].(float64) {
			t.Errorf("malformed span %v", s)
		}
		if s["parent"].(float64) == 0 {
			roots[s["name"].(string)] = true
		}
	}
	for _, w := range workloadDefs {
		if !roots[w.Name] {
			t.Errorf("no whole-path root span for %s", w.Name)
		}
	}
	// No child process may outlive its workload.
	if n := len(h.procs.live); n != 0 {
		t.Errorf("%d child processes still live", n)
	}
}
