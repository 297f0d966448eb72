package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"filemig/internal/migration"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// testSpec is a small but structurally complete grid: two scenarios,
// a stateless, a stateful, and an offline policy, three capacities.
func testSpec() *Spec {
	return &Spec{
		Name:       "unit",
		Scenarios:  []string{"paper-1993", "checkpoint-restart"},
		Scale:      0.002,
		Seed:       5,
		Days:       45,
		Policies:   []string{"stp:1.4", "random:3", "opt"},
		Capacities: []float64{0.01, 0.02, 0.10},
	}
}

// TestManifestDeterminism is the package's core guarantee: the same spec
// and seed produce a byte-identical JSON manifest at any worker count.
func TestManifestDeterminism(t *testing.T) {
	var first []byte
	for _, workers := range []int{1, 4, 16} {
		spec := testSpec()
		spec.Workers = workers
		m, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
			continue
		}
		if !bytes.Equal(first, b) {
			t.Fatalf("manifest differs between workers=1 and workers=%d", workers)
		}
	}
	if strings.Contains(string(first), `"workers"`) {
		t.Error("manifest echoes the workers execution knob")
	}
}

// TestModernManifestDeterminism extends the worker-count guarantee to
// the five stateful modern policies: every cell builds its own ARC
// ghost lists, LRU-K histories, greedy-dual clocks, and STP fits, so
// the manifest must stay byte-identical at workers 1, 2, and 8.
func TestModernManifestDeterminism(t *testing.T) {
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		spec := &Spec{
			Name:       "modern",
			Scenarios:  []string{"paper-1993", "checkpoint-restart"},
			Scale:      0.002,
			Seed:       5,
			Days:       45,
			Policies:   []string{"arc", "lruk:2", "gdsf", "cost", "stp-adapt"},
			Capacities: []float64{0.01, 0.05, 0.10},
			Workers:    workers,
		}
		m, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, sr := range m.Scenarios {
			for _, row := range sr.Policies {
				for _, c := range row.Cells {
					if c.Evictions == 0 && c.CapacityFraction < 0.1 {
						t.Errorf("%s/%s@%v: no evictions; the grid exercises nothing",
							sr.Name, row.Policy, c.CapacityFraction)
					}
				}
			}
		}
		b, err := m.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
			continue
		}
		if !bytes.Equal(first, b) {
			t.Fatalf("modern manifest differs between workers=1 and workers=%d", workers)
		}
	}
}

func TestManifestShape(t *testing.T) {
	m, err := Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if m.Grid != (GridSummary{Sources: 2, Policies: 3, Capacities: 3, Cells: 18}) {
		t.Fatalf("grid summary %+v", m.Grid)
	}
	if len(m.Scenarios) != 2 {
		t.Fatalf("%d scenario blocks", len(m.Scenarios))
	}
	for _, sr := range m.Scenarios {
		if sr.Records == 0 || sr.Accesses == 0 || sr.ReferencedBytes == 0 {
			t.Errorf("%s: empty provenance %+v", sr.Name, sr)
		}
		if len(sr.TraceSHA256) != 64 {
			t.Errorf("%s: trace hash %q", sr.Name, sr.TraceSHA256)
		}
		if len(sr.Policies) != 3 {
			t.Fatalf("%s: %d policy rows", sr.Name, len(sr.Policies))
		}
		for _, row := range sr.Policies {
			if len(row.Cells) != 3 {
				t.Fatalf("%s/%s: %d cells", sr.Name, row.Policy, len(row.Cells))
			}
			for _, c := range row.Cells {
				if c.Reads == 0 || c.CapacityBytes <= 0 {
					t.Errorf("%s/%s@%v: empty cell %+v", sr.Name, row.Policy, c.CapacityFraction, c)
				}
				if c.ReadHits+c.ReadMisses != c.Reads {
					t.Errorf("%s/%s@%v: hits %d + misses %d != reads %d",
						sr.Name, row.Policy, c.CapacityFraction, c.ReadHits, c.ReadMisses, c.Reads)
				}
			}
		}
		// Bigger caches never read-miss more under STP.
		stp := sr.Policies[0]
		for i := 1; i < len(stp.Cells); i++ {
			if stp.Cells[i].MissRatio > stp.Cells[i-1].MissRatio+1e-12 {
				t.Errorf("%s: STP miss ratio rose with capacity: %v -> %v",
					sr.Name, stp.Cells[i-1].MissRatio, stp.Cells[i].MissRatio)
			}
		}
	}
	// The two scenarios must have replayed different traces.
	if m.Scenarios[0].TraceSHA256 == m.Scenarios[1].TraceSHA256 {
		t.Error("both scenarios produced the same trace")
	}
	// Round trip: decode(encode) preserves the manifest.
	b, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := back.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("manifest does not round-trip through JSON")
	}
	if _, ok := m.Scenario("checkpoint-restart"); !ok {
		t.Error("Scenario lookup failed")
	}
	// Rendering mentions every axis.
	text := RenderManifest(m)
	for _, want := range []string{"2 sources × 3 policies × 3 capacities",
		"paper-1993", "checkpoint-restart", "STP^1.4", "OPT", "random"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered manifest missing %q:\n%s", want, text)
		}
	}
}

// TestTraceFileSource replays a trace file next to the scenario that
// generated it and checks both sources agree cell for cell. The scenario
// must be burst-free: the wire format carries whole seconds, and burst
// packing's sub-second offsets would be quantized on the file path.
func TestTraceFileSource(t *testing.T) {
	cfg, err := workload.ScenarioConfig("archive-coldscan", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Days = 45
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAllFormat(f, res.Records, trace.FormatASCII); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spec := testSpec()
	spec.Scenarios = []string{"archive-coldscan"}
	spec.Trace = path
	m, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Scenarios) != 2 {
		t.Fatalf("%d sources, want scenario + trace", len(m.Scenarios))
	}
	gen, _ := m.Scenario("archive-coldscan")
	file, ok := m.Scenario(path)
	if !ok {
		t.Fatal("trace file block missing")
	}
	// Same records on both paths: identical hash and identical grid. The
	// one legitimate difference is PersonMinutesPerDay: the scenario
	// normalizes by its configured whole-day length, while a trace file's
	// span is measured from its records.
	if gen.TraceSHA256 != file.TraceSHA256 {
		t.Errorf("trace hash %s != generated %s", file.TraceSHA256, gen.TraceSHA256)
	}
	if file.Days <= 0 || file.Days > gen.Days {
		t.Errorf("file span %v days vs configured %v", file.Days, gen.Days)
	}
	for i, row := range gen.Policies {
		for j, c := range row.Cells {
			fc := file.Policies[i].Cells[j]
			c.PersonMinutesPerDay, fc.PersonMinutesPerDay = 0, 0
			if fc != c {
				t.Errorf("%s@%v: file cell differs from generated cell:\n  gen  %+v\n  file %+v",
					row.Policy, c.CapacityFraction, c, fc)
			}
		}
	}
}

func TestRunRejectsMissingTrace(t *testing.T) {
	spec := &Spec{Name: "gone", Trace: filepath.Join(t.TempDir(), "nope.txt")}
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// loading reports whether any source load is still running.
func loading() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "experiment.loadSource")
}

// threeSources is testSpec over three scenarios, so the pipeline has a
// source loading ahead while another's cells run.
func threeSources(workers int) *Spec {
	spec := testSpec()
	spec.Scenarios = append(spec.Scenarios, "archive-coldscan")
	spec.Workers = workers
	return spec
}

// TestRunRejectsMissingTraceLast: the trace file is the last source and
// is gone by run time, so its load fails while earlier sources' cells
// are replaying; RunPlan must surface that failure, and only after every
// load has finished.
func TestRunRejectsMissingTraceLast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gone.txt")
	for _, workers := range []int{1, 2, 4} {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		spec := threeSources(workers)
		spec.Trace = path
		plan, err := BuildPlan(spec) // validation sees the file ...
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil { // ... the run does not
			t.Fatal(err)
		}
		if _, err := RunPlan(context.Background(), plan); err == nil || !strings.Contains(err.Error(), "gone.txt") {
			t.Errorf("workers=%d: error %v, want the missing trace's", workers, err)
		}
		if loading() {
			t.Errorf("workers=%d: a source load outlived RunPlan", workers)
		}
	}
}

// TestRunPlanCancelMidGrid cancels the run as the first cell of source
// 1 is built, when source 2 has just started loading: RunPlan must
// return ctx's error, and only after that load has finished.
func TestRunPlanCancelMidGrid(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		plan, err := BuildPlan(threeSources(workers))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		perSource := len(plan.Policies) * len(plan.Capacities)
		built := 0
		mk := plan.entries[0].mk
		plan.entries[0].mk = func(ls *loadedSource) migration.Policy {
			if built++; built == len(plan.Capacities)+1 { // source 1's first cell
				cancel()
			}
			return mk(ls)
		}
		if perSource != 9 || plan.entries[0].name != "STP^1.4" {
			t.Fatalf("unexpected grid: %d cells per source, first policy %s", perSource, plan.entries[0].name)
		}
		_, err = RunPlan(ctx, plan)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: RunPlan returned %v, want %v", workers, err, context.Canceled)
		}
		if loading() {
			t.Errorf("workers=%d: a source load outlived RunPlan", workers)
		}
	}
	// A cancel during a load stops it within drainCheckEvery records,
	// not at the end of its source.
	cfg, err := workload.ScenarioConfig("paper-1993", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := workload.GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Planned < 4*drainCheckEvery {
		t.Fatalf("source plans only %d records", gs.Planned)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelAfter{s: gs.Stream, n: 100, cancel: cancel}
	if _, err := drainSource(ctx, "paper-1993", cs, 0, sourceSize{}); !errors.Is(err, context.Canceled) {
		t.Errorf("drainSource cancelled mid-load returned %v, want %v", err, context.Canceled)
	}
	if cs.read > cs.n+drainCheckEvery {
		t.Errorf("drainSource read %d of %d records after a cancel at record %d", cs.read, gs.Planned, cs.n)
	}
}

// cancelAfter is a stream that cancels its load's ctx once it has
// yielded n records, counting every record read.
type cancelAfter struct {
	s      trace.Stream
	n      int
	read   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (trace.Record, error) {
	if c.read++; c.read == c.n {
		c.cancel()
	}
	return c.s.Next()
}
