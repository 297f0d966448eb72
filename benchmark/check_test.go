package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// TestHashMismatchFailsTheRun follows a wrong output from the checker to
// the process exit code: the mismatch is a failed operation, marks the
// workload incorrect, shows in the contract line, and makes the run exit
// non-zero.
func TestHashMismatchFailsTheRun(t *testing.T) {
	h := &harness{out: t.TempDir(), progress: io.Discard}
	w := &workloadResult{Name: "scan-large", Correct: true}
	if !w.checkOutput(h, "stdout", []byte("right"), sha("right")) {
		t.Fatal("matching output rejected")
	}
	if w.Attempted != 1 || w.Failed != 0 || !w.Correct {
		t.Fatalf("after a good check: %+v", w)
	}
	if w.checkOutput(h, "stdout", []byte("wrong"), sha("right")) {
		t.Fatal("mismatching output accepted")
	}
	if w.Attempted != 2 || w.Failed != 1 || w.Correct {
		t.Fatalf("after a bad check: %+v", w)
	}
	def, _ := findWorkload(w.Name)
	if err := w.finish(def, []float64{1.5}, (&repSeries{wall: []float64{1}, cpu: []float64{1}, rss: []float64{1}}).metrics()); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	res := &result{Schema: schemaName, Mode: "end_to_end", Workloads: []workloadResult{*w}}
	if code := h.report(res, true, &stdout, &stderr); code == 0 {
		t.Error("exit code 0 despite a failed output check")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the contract object: %v", err)
	}
	if line.Correct || line.Attempted != 2 || line.Failed != 1 || len(line.Metrics) != len(common) {
		t.Errorf("contract line = %+v", line)
	}

	// The same result without the failure exits zero.
	w2 := *w
	w2.Correct, w2.Failed = true, 0
	res.Workloads = []workloadResult{w2}
	if code := h.report(res, true, io.Discard, io.Discard); code != 0 {
		t.Errorf("exit code %d for a clean result", code)
	}
}

// TestWarmupIsDiscarded checks that the warm-up rep leaves no samples and
// no operation counts behind, and that the window, not a count, ends the
// measured reps.
func TestWarmupIsDiscarded(t *testing.T) {
	h := &harness{progress: io.Discard, sizes: sizes{Warmup: true}}
	h.ctx = t.Context()
	w := &workloadResult{Name: "x", Correct: true}
	var ks []int
	err := h.measure(w, true, 3, func(k int) {
		ks = append(ks, k)
		w.op(h, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 4 || ks[0] != -1 || w.Reps != 3 || w.Attempted != 3 {
		t.Errorf("reps %v, result %+v", ks, w)
	}
}
