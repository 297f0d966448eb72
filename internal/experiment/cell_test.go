package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"filemig/internal/migration"
)

// quickgridPlan builds the CI smoke grid's plan at the given worker
// count.
func quickgridPlan(t *testing.T, workers int) *Plan {
	t.Helper()
	spec, err := ParseFile("../../testdata/quickgrid.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = workers
	plan, err := BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestRunPlanIsCellRunner: RunPlan is the cell runner plus the
// assembler, so its manifest equals AssembleManifest over RunCell
// outcomes — fed in reversed order, which the assembler must not care
// about — byte for byte at any worker count.
func TestRunPlanIsCellRunner(t *testing.T) {
	for _, workers := range []int{1, 4} {
		plan := quickgridPlan(t, workers)
		m, err := RunPlan(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}

		cr := NewCellRunner(plan)
		refs := plan.CellRefs()
		var outcomes []CellOutcome
		for i := len(refs) - 1; i >= 0; i-- {
			o, err := cr.RunCell(context.Background(), refs[i])
			if err != nil {
				t.Fatal(err)
			}
			outcomes = append(outcomes, o)
		}
		am, err := AssembleManifest(plan, outcomes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := am.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: RunPlan's manifest differs from the assembled RunCell outcomes", workers)
		}
	}
}

// TestGridBuildsOnePolicyPerCell pins the builder budget: RunPlan calls
// a policy entry's builder exactly once per cell of its column, RunCell
// exactly once — stateful builders (OPT's FutureIndex) are not cheap,
// and an extra instance would mean one was shared or thrown away.
func TestGridBuildsOnePolicyPerCell(t *testing.T) {
	plan := quickgridPlan(t, 4)
	calls := make([]int, len(plan.entries))
	for i := range plan.entries {
		i, mk := i, plan.entries[i].mk
		// Builders run serially on the calling goroutine, so a plain
		// counter is enough (and -race checks that they do).
		plan.entries[i].mk = func(ls *loadedSource) migration.Policy {
			calls[i]++
			return mk(ls)
		}
	}
	if _, err := RunPlan(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	perColumn := len(plan.Sources) * len(plan.Capacities)
	for i, n := range calls {
		if n != perColumn {
			t.Errorf("RunPlan built %s %d times for %d cells", plan.Policies[i], n, perColumn)
		}
		calls[i] = 0
	}
	ref := CellRef{Source: 1, Policy: 2, Capacity: 1}
	if _, err := NewCellRunner(plan).RunCell(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	for i, n := range calls {
		want := 0
		if i == ref.Policy {
			want = 1
		}
		if n != want {
			t.Errorf("RunCell(%v) built %s %d times, want %d", ref, plan.Policies[i], n, want)
		}
	}
}

// TestAssembleManifestRejections: the assembler's checks guard the
// in-process run too now, so each one is pinned here.
func TestAssembleManifestRejections(t *testing.T) {
	plan := quickgridPlan(t, 1)
	cr := NewCellRunner(plan)
	var full []CellOutcome
	for _, ref := range plan.CellRefs() {
		o, err := cr.RunCell(context.Background(), ref)
		if err != nil {
			t.Fatal(err)
		}
		full = append(full, o)
	}
	mutate := func(f func(o []CellOutcome) []CellOutcome) []CellOutcome {
		return f(append([]CellOutcome(nil), full...))
	}
	for _, tc := range []struct {
		name, want string
		outcomes   []CellOutcome
	}{
		{"missing", "missing outcome", mutate(func(o []CellOutcome) []CellOutcome { return o[:len(o)-1] })},
		{"duplicate", "duplicate outcome", mutate(func(o []CellOutcome) []CellOutcome { return append(o, o[3]) })},
		{"outside", "outside the grid", mutate(func(o []CellOutcome) []CellOutcome {
			o[0].Ref.Policy = len(plan.Policies)
			return o
		})},
		{"identity", "disagrees on source", mutate(func(o []CellOutcome) []CellOutcome {
			o[5].Source.TraceSHA256 = strings.Repeat("0", 64)
			return o
		})},
	} {
		if _, err := AssembleManifest(plan, tc.outcomes); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := cr.RunCell(context.Background(), CellRef{Source: len(plan.Sources)}); err == nil {
		t.Error("RunCell accepted a ref outside the grid")
	}
}
