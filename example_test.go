package filemig_test

import (
	"bytes"
	"fmt"
	"log"

	"filemig"
	"filemig/internal/trace"
)

// ExampleRun executes the whole pipeline — generate, simulate, analyse —
// at a tiny scale and picks two headline numbers out of the report.
// Seeded runs are deterministic, so the output is stable.
func ExampleRun() {
	p, err := filemig.Run(filemig.Config{Scale: 0.002, Seed: 1, Days: 30})
	if err != nil {
		log.Fatal(err)
	}
	t3 := p.Report.Table3
	fmt.Printf("good references: %d\n", t3.TotalRefs)
	fmt.Printf("error references: %d of %d\n", t3.ErrorRefs, t3.GrandTotal)
	// Output:
	// good references: 4466
	// error references: 223 of 4689
}

// ExampleScenarios lists the named workload scenario library that
// experiment specs select from.
func ExampleScenarios() {
	for _, s := range filemig.Scenarios() {
		fmt.Println(s.Name)
	}
	// Output:
	// paper-1993
	// diurnal-interactive
	// checkpoint-restart
	// archive-coldscan
}

// ExampleRunExperiment executes a small declarative grid — one scenario,
// two policies, two capacities — and reads one figure of merit out of
// the deterministic manifest.
func ExampleRunExperiment() {
	m, err := filemig.RunExperiment(&filemig.ExperimentSpec{
		Name:       "example",
		Scenarios:  []string{"paper-1993"},
		Scale:      0.002,
		Seed:       1,
		Days:       30,
		Policies:   []string{"stp:1.4", "lru"},
		Capacities: []float64{0.02, 0.10},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %d cells\n", m.Grid.Cells)
	sr := m.Scenarios[0]
	for _, row := range sr.Policies {
		for _, cell := range row.Cells {
			fmt.Printf("%s @ %g%%: %.1f%% read misses\n",
				row.Policy, 100*cell.CapacityFraction, 100*cell.MissRatio)
		}
	}
	// Output:
	// grid: 4 cells
	// STP^1.4 @ 2%: 42.7% read misses
	// STP^1.4 @ 10%: 24.6% read misses
	// LRU @ 2%: 66.3% read misses
	// LRU @ 10%: 26.6% read misses
}

// ExampleSaveSnapshot analyses an encoded trace into an s1 snapshot —
// the unit of work one node contributes to a distributed analysis. The
// snapshot carries the full analysis state in a fraction of the trace's
// bytes (paths are interned once; per-record state is varint deltas).
func ExampleSaveSnapshot() {
	p, err := filemig.Run(filemig.Config{Scale: 0.002, Seed: 1, Days: 30})
	if err != nil {
		log.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := trace.WriteAllFormat(&encoded, p.Records, trace.FormatBinary); err != nil {
		log.Fatal(err)
	}
	traceBytes := encoded.Len()
	var snap bytes.Buffer
	if err := filemig.SaveSnapshot(&snap, &encoded); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot smaller than the trace: %v\n", snap.Len() < traceBytes)
	// Output:
	// snapshot smaller than the trace: true
}

// ExampleMergeSnapshots is the reduce step: two trace slices analysed
// independently — on different machines, in real deployments — merge
// into the same report a single process computes over the whole trace
// (compare ExampleRun's counts).
func ExampleMergeSnapshots() {
	p, err := filemig.Run(filemig.Config{Scale: 0.002, Seed: 1, Days: 30})
	if err != nil {
		log.Fatal(err)
	}
	var s1, s2 bytes.Buffer
	for _, half := range []struct {
		dst  *bytes.Buffer
		recs []trace.Record
	}{
		{&s1, p.Records[:len(p.Records)/2]},
		{&s2, p.Records[len(p.Records)/2:]},
	} {
		var enc bytes.Buffer
		if err := trace.WriteAllFormat(&enc, half.recs, trace.FormatBinary); err != nil {
			log.Fatal(err)
		}
		if err := filemig.SaveSnapshot(half.dst, &enc); err != nil {
			log.Fatal(err)
		}
	}
	merged, err := filemig.MergeSnapshots(&s1, &s2)
	if err != nil {
		log.Fatal(err)
	}
	t3 := merged.Report.Table3
	fmt.Printf("good references: %d\n", t3.TotalRefs)
	fmt.Printf("error references: %d of %d\n", t3.ErrorRefs, t3.GrandTotal)
	// Output:
	// good references: 4466
	// error references: 223 of 4689
}

// ExampleRunStream is the bounded-memory variant: records flow from the
// generator straight into the analysis without ever materializing the
// trace, and the report matches Run's (modulo the skipped simulation).
func ExampleRunStream() {
	rep, err := filemig.RunStream(filemig.Config{Scale: 0.002, Seed: 1, Days: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("good references: %d\n", rep.Table3.TotalRefs)
	// Output:
	// good references: 4466
}
