package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare A.json B.json judges result B against baseline A: for every
// workload × end-to-end metric both files hold, it prints both medians
// with their quartiles, applies the metric's bound in its stated
// direction, and exits non-zero on any regression.

// Verdicts of one workload × metric pair.
const (
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares one metric. worse is B's change from A in the bad
// direction as a share of A (negative when B is better).
//
// B regresses when its value is worse than A's by more than the bound.
// Otherwise, when the run-to-run spread on either side exceeds the
// bound — or is unknown, because a side has a single run — the pair is
// unresolved, not unchanged, unless every run of B reads better than
// every run of A, which no spread can explain away. An improvement is
// claimed only in that fully separated case, from at least two runs a
// side.
func judge(def metricDef, a, b metric) (verdict string, worse float64) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound {
		return verdictRegressed, worse
	}
	if len(a.Runs) < 2 || len(b.Runs) < 2 {
		return verdictUnresolved, worse
	}
	if separated(def, a.Runs, b.Runs) {
		return verdictImproved, worse
	}
	if spread(a.Runs) > def.Bound || spread(b.Runs) > def.Bound {
		return verdictUnresolved, worse
	}
	return verdictUnchanged, worse
}

// separated reports whether every run of b reads better than every run
// of a.
func separated(def metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// failedShare is the share of attempted operations that failed.
func failedShare(w workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}

// readResult loads a result file.
func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaName || r.Mode != "end_to_end" {
		return nil, fmt.Errorf("%s: not an end-to-end result (schema %q, mode %q)", path, r.Schema, r.Mode)
	}
	return &r, nil
}

// compareFiles prints the comparison and returns the exit code: 0 when
// nothing regressed, 1 on a regression, 2 when the files cannot be
// compared.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *result
		if b, err = readResult(pathB); err == nil {
			return compareResults(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

// compareResults prints one row per workload × metric and returns 1 if
// any pair regressed or more operations failed, else 0.
func compareResults(a, b *result, w io.Writer) int {
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Nproc != b.Nproc {
		fmt.Fprintf(w, "note: runs differ in settings (seed %d/%d, window %d/%d s, nproc %d/%d)\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.Nproc, b.Nproc)
	}
	fmt.Fprintf(w, "%-12s %-18s %-6s %14s %-27s %14s %-27s %8s %6s  %s\n",
		"workload", "metric", "unit", "A", "[q1, q3] n", "B", "[q1, q3] n", "worse", "bound", "verdict")
	regressed := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		for _, def := range endToEnd {
			ma, okA := wa.get(def.Name)
			mb, okB := wb.get(def.Name)
			if !okA || !okB {
				continue
			}
			verdict, worse := judge(def, ma, mb)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-18s %-6s %14.6g %-27s %14.6g %-27s %+7.1f%% %5.0f%%  %s\n",
				wa.Name, def.Name, def.Unit,
				ma.Value, fmt.Sprintf("[%.5g, %.5g] %d", ma.Q1, ma.Q3, ma.N),
				mb.Value, fmt.Sprintf("[%.5g, %.5g] %d", mb.Q1, mb.Q3, mb.N),
				100*worse, 100*def.Bound, verdict)
		}
		fa, fb := failedShare(wa), failedShare(*wb)
		verdict := verdictUnchanged
		if fb > fa {
			verdict = verdictRegressed
			regressed++
		}
		fmt.Fprintf(w, "%-12s %-18s %-6s %14.6g %-27s %14.6g %-27s %8s %6s  %s\n",
			wa.Name, "failed_share", "ratio",
			fa, fmt.Sprintf("%d of %d", wa.Failed, wa.Attempted),
			fb, fmt.Sprintf("%d of %d", wb.Failed, wb.Attempted), "", "", verdict)
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
