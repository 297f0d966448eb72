package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"filemig/internal/experiment"
)

// The KindGrid glue: an experiment plan's policy × capacity × source
// grid distributed cell by cell. The plan blob is the normalized spec's
// JSON (so every worker rebuilds the identical plan), each payload is a
// CellRef, and each result a CellOutcome; the coordinator folds
// delivered outcomes back into the manifest RunPlan would have
// produced, byte for byte.

// GridCoordinator distributes one experiment plan's grid over workers;
// its embedded Coordinator serves the cells (Serve) and counts those
// restored from the journal (Resumed).
type GridCoordinator struct {
	*Coordinator
	plan     *experiment.Plan
	outcomes []experiment.CellOutcome
}

// NewGridCoordinator builds a coordinator serving plan's cells.
func NewGridCoordinator(plan *experiment.Plan, opts Options) (*GridCoordinator, error) {
	hash, err := plan.Hash()
	if err != nil {
		return nil, err
	}
	spec := plan.Spec
	spec.Workers = 0 // execution knob: keep the served plan byte-stable
	blob, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	refs := plan.CellRefs()
	payloads := make([][]byte, len(refs))
	for i, r := range refs {
		if payloads[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	g := &GridCoordinator{plan: plan, outcomes: make([]experiment.CellOutcome, 0, len(refs))}
	g.Coordinator, err = NewCoordinator(Config{
		Kind:     KindGrid,
		PlanHash: hash,
		Plan:     blob,
		Payloads: payloads,
		Handle:   g.handle,
	}, opts)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// handle folds one delivered cell, verifying the worker answered the
// task it was asked.
func (g *GridCoordinator) handle(id int, result []byte) error {
	var out experiment.CellOutcome
	if err := json.Unmarshal(result, &out); err != nil {
		return fmt.Errorf("bad cell outcome: %w", err)
	}
	if got := g.plan.CellID(out.Ref); got != id {
		return fmt.Errorf("task %d answered with %v (task %d)", id, out.Ref, got)
	}
	g.outcomes = append(g.outcomes, out)
	return nil
}

// Manifest assembles the completed grid. Call only after Serve returns
// nil.
func (g *GridCoordinator) Manifest() (*experiment.Manifest, error) {
	return experiment.AssembleManifest(g.plan, g.outcomes)
}

// newGridExec builds the worker-side KindGrid executor: rebuild the
// plan from the served spec and answer each CellRef with its
// CellOutcome, caching loaded sources across cells.
func newGridExec(blob []byte) (ExecFunc, error) {
	spec, err := experiment.Parse(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	plan, err := experiment.BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	runner := experiment.NewCellRunner(plan)
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		var ref experiment.CellRef
		if err := json.Unmarshal(payload, &ref); err != nil {
			return nil, fmt.Errorf("dist: bad cell payload: %w", err)
		}
		out, err := runner.RunCell(ctx, ref)
		if err != nil {
			return nil, err
		}
		return json.Marshal(out)
	}, nil
}
