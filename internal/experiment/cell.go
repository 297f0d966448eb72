package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
)

// The cell-level API: a plan's grid flattened into an ordered task list
// (CellRefs), a runner that executes single cells against cached
// sources (CellRunner), and the assembler that folds a complete outcome
// set into the manifest (AssembleManifest). RunPlan is built from the
// same two pieces — Plan.runCells is the executor under both it and
// RunCell, and AssembleManifest is the only manifest builder — so a grid
// computed cell-by-cell on many machines is the in-process grid.

// CellRef names one grid cell by its axis indices into the plan's
// Sources, Policies and Capacities.
type CellRef struct {
	// Source indexes Plan.Sources.
	Source int `json:"source"`
	// Policy indexes Plan.Policies.
	Policy int `json:"policy"`
	// Capacity indexes Plan.Capacities.
	Capacity int `json:"capacity"`
}

// String renders the ref for error messages.
func (r CellRef) String() string {
	return fmt.Sprintf("cell(src=%d,pol=%d,cap=%d)", r.Source, r.Policy, r.Capacity)
}

// CellRefs flattens the grid into task order: source-major, then
// policy, then capacity — the manifest's nesting, and the order RunPlan
// executes.
func (p *Plan) CellRefs() []CellRef {
	out := make([]CellRef, 0, p.Cells())
	for s := range p.Sources {
		for pi := range p.Policies {
			for ci := range p.Capacities {
				out = append(out, CellRef{Source: s, Policy: pi, Capacity: ci})
			}
		}
	}
	return out
}

// CellID maps a ref to its task index in CellRefs order.
func (p *Plan) CellID(r CellRef) int {
	return (r.Source*len(p.Policies)+r.Policy)*len(p.Capacities) + r.Capacity
}

// validRef reports whether r is inside the grid.
func (p *Plan) validRef(r CellRef) bool {
	return r.Source >= 0 && r.Source < len(p.Sources) &&
		r.Policy >= 0 && r.Policy < len(p.Policies) &&
		r.Capacity >= 0 && r.Capacity < len(p.Capacities)
}

// Hash fingerprints the plan: the SHA-256 of its normalized spec's JSON
// with the Workers execution knob zeroed, so the same experiment hashes
// identically however it is run. Distributed runs use it to pair
// coordinators, workers, and journals.
func (p *Plan) Hash() (string, error) {
	spec := p.Spec
	spec.Workers = 0
	b, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// SourceInfo is one source's identity block: every cell computed from
// the source carries a copy, and a merger refuses to combine cells that
// disagree — two workers that somehow produced different reference
// strings cannot silently mix.
type SourceInfo struct {
	// Name is the scenario name, or the trace file path.
	Name string `json:"name"`
	// TraceSHA256 hashes the source trace's canonical v1 encoding: two
	// manifests disagreeing here compared different reference strings.
	TraceSHA256 string `json:"traceSha256"`
	// Records counts trace records, error requests included.
	Records int `json:"records"`
	// Accesses counts the replayed reference string (errors skipped).
	Accesses int `json:"accesses"`
	// ReferencedBytes sums the distinct referenced files' sizes — the
	// base the capacity fractions multiply.
	ReferencedBytes int64 `json:"referencedBytes"`
	// Days is the trace span used for per-day rates.
	Days float64 `json:"days"`
}

// CellOutcome is one executed cell: the ref it answers, the identity of
// the source it replayed, and the resulting manifest cell.
type CellOutcome struct {
	// Ref names the cell.
	Ref CellRef `json:"ref"`
	// Source identifies the replayed source.
	Source SourceInfo `json:"source"`
	// Cell is the result.
	Cell Cell `json:"cell"`
}

// CellRunner executes single grid cells, loading (and caching) each
// source on first use so a worker serving many cells of one source
// generates and hashes its trace exactly once.
type CellRunner struct {
	plan *Plan

	mu   sync.Mutex
	srcs map[int]*loadedSource
}

// NewCellRunner returns a runner over the plan.
func NewCellRunner(plan *Plan) *CellRunner {
	return &CellRunner{plan: plan, srcs: map[int]*loadedSource{}}
}

// source returns the cached loaded source, loading it on first use.
func (cr *CellRunner) source(ctx context.Context, idx int) (*loadedSource, error) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if ls, ok := cr.srcs[idx]; ok {
		return ls, nil
	}
	ls, err := loadSource(ctx, cr.plan, idx)
	if err != nil {
		return nil, err
	}
	cr.srcs[idx] = ls
	return ls, nil
}

// RunCell executes one cell — Plan.runCells with one ref and one
// worker — and returns its outcome. Determinism is total, so re-running
// a ref always reproduces the same outcome.
func (cr *CellRunner) RunCell(ctx context.Context, ref CellRef) (CellOutcome, error) {
	if !cr.plan.validRef(ref) {
		return CellOutcome{}, fmt.Errorf("experiment: %v outside the %d×%d×%d grid",
			ref, len(cr.plan.Sources), len(cr.plan.Policies), len(cr.plan.Capacities))
	}
	out, err := cr.plan.runCells(ctx, []CellRef{ref},
		func(ctx context.Context, _ int) (*loadedSource, error) { return cr.source(ctx, ref.Source) }, 1)
	if err != nil {
		return CellOutcome{}, err
	}
	return out[0], nil
}

// AssembleManifest folds a complete outcome set — one outcome per grid
// cell, in any order — into the plan's manifest; it is the only place a
// Manifest is built, for RunPlan and for a distributed run alike. It
// verifies completeness, rejects duplicates, and requires every outcome
// of one source to carry an identical SourceInfo.
func AssembleManifest(plan *Plan, outcomes []CellOutcome) (*Manifest, error) {
	want := plan.Cells()
	byID := make([]*CellOutcome, want)
	for i := range outcomes {
		o := &outcomes[i]
		if !plan.validRef(o.Ref) {
			return nil, fmt.Errorf("experiment: assemble: %v outside the grid", o.Ref)
		}
		id := plan.CellID(o.Ref)
		if byID[id] != nil {
			return nil, fmt.Errorf("experiment: assemble: duplicate outcome for %v", o.Ref)
		}
		byID[id] = o
	}
	for id, o := range byID {
		if o == nil {
			return nil, fmt.Errorf("experiment: assemble: missing outcome for task %d of %d", id, want)
		}
	}
	m := &Manifest{
		Spec: plan.Spec,
		Grid: GridSummary{
			Sources:    len(plan.Sources),
			Policies:   len(plan.Policies),
			Capacities: len(plan.Capacities),
			Cells:      want,
		},
	}
	// Workers tunes wall-clock only; zero it so the echoed spec (and the
	// whole manifest) is byte-identical across worker counts.
	m.Spec.Workers = 0
	for s, name := range plan.Sources {
		base := s * len(plan.Policies) * len(plan.Capacities)
		info := byID[base].Source
		if info.Name != name {
			return nil, fmt.Errorf("experiment: assemble: source %d is %q in outcomes, %q in plan", s, info.Name, name)
		}
		sr := ScenarioResult{SourceInfo: info}
		for pi, pname := range plan.Policies {
			row := PolicyGrid{Policy: pname, Cells: make([]Cell, len(plan.Capacities))}
			for ci := range plan.Capacities {
				o := byID[base+pi*len(plan.Capacities)+ci]
				if o.Source != info {
					return nil, fmt.Errorf("experiment: assemble: %v disagrees on source %q identity "+
						"(trace %s vs %s) — workers replayed different reference strings",
						o.Ref, name, o.Source.TraceSHA256, info.TraceSHA256)
				}
				row.Cells[ci] = o.Cell
			}
			sr.Policies = append(sr.Policies, row)
		}
		m.Scenarios = append(m.Scenarios, sr)
	}
	return m, nil
}
