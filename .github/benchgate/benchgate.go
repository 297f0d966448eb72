// Command benchgate compares a freshly measured benchmark snapshot
// (bench.sh output) against the committed BENCH.json and fails on
// regression:
//
//   - allocs_op must match the committed value up to max(16, 0.5%):
//     effectively exact — the worker-pool benchmarks jitter by a few
//     allocations with goroutine scheduling, and each parallel b2 block
//     decoder keeps a bounded local-path cache of its own, so which
//     blocks land on which worker decides how many workers copy a local
//     path — while a real per-record allocation regression shows up
//     thousands of times over the slack. (The MSS paths no longer
//     jitter: a run's decoders share one path table, which copies each
//     path once whichever worker meets it first.)
//   - b_op must stay within 10% of the committed value.
//   - ns_op is informational only: CI boxes are noisy, so timing is
//     printed but never fails the gate.
//
// A benchmark present in the committed snapshot but missing from the
// measurement fails the gate (the suite silently shrank); a new
// benchmark missing from the committed snapshot is reported so the
// snapshot gets updated.
//
// Usage: go run ./.github/benchgate BENCH.json BENCH_CI.json
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// entry is one benchmark's metrics as bench.sh records them.
type entry struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// load reads one bench.sh JSON snapshot.
func load(path string) (map[string]entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]entry
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return m, nil
}

// allocSlack is the permitted allocs_op drift: max(16, 0.5%). The
// proportional term covers scheduling-dependent per-worker local-path
// cache churn and goroutine start-up in the parallel decode benchmarks;
// the floor keeps small-count benchmarks effectively exact.
func allocSlack(committed float64) float64 {
	return math.Max(16, committed/200)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate committed.json measured.json")
		os.Exit(2)
	}
	committed, err := load(os.Args[1])
	if err == nil {
		var measured map[string]entry
		measured, err = load(os.Args[2])
		if err == nil {
			os.Exit(compare(committed, measured))
		}
	}
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}

// compare prints a per-benchmark report and returns the exit code.
func compare(committed, measured map[string]entry) int {
	names := make([]string, 0, len(committed))
	for name := range committed {
		names = append(names, name)
	}
	sort.Strings(names)
	failures := 0
	for _, name := range names {
		want := committed[name]
		got, ok := measured[name]
		if !ok {
			fmt.Printf("FAIL %s: missing from measurement\n", name)
			failures++
			continue
		}
		status := "ok  "
		var why string
		if d := math.Abs(got.AllocsOp - want.AllocsOp); d > allocSlack(want.AllocsOp) {
			status = "FAIL"
			why += fmt.Sprintf(" allocs_op %.0f vs committed %.0f (slack %.0f);",
				got.AllocsOp, want.AllocsOp, allocSlack(want.AllocsOp))
		}
		if want.BOp > 0 && math.Abs(got.BOp-want.BOp) > 0.10*want.BOp {
			status = "FAIL"
			why += fmt.Sprintf(" b_op %.0f vs committed %.0f (±10%%);", got.BOp, want.BOp)
		}
		fmt.Printf("%s %-45s allocs %8.0f (ref %8.0f)  B/op %10.0f (ref %10.0f)  ns/op %12.0f (ref %12.0f, informational)%s\n",
			status, name, got.AllocsOp, want.AllocsOp, got.BOp, want.BOp, got.NsOp, want.NsOp, why)
		if status == "FAIL" {
			failures++
		}
	}
	for name := range measured {
		if _, ok := committed[name]; !ok {
			fmt.Printf("note %s: not in committed snapshot — update BENCH.json\n", name)
		}
	}
	if failures > 0 {
		fmt.Printf("benchgate: %d regression(s) against the committed snapshot\n", failures)
		return 1
	}
	fmt.Println("benchgate: no regressions")
	return 0
}
