package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"filemig/internal/migration"
	"filemig/internal/trace"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// Run executes the spec's full grid and returns its manifest: each
// source's trace is produced exactly once, hashed, and converted to the
// shared access string record by record (the trace itself is never
// materialized), and then every policy × capacity cell replays that
// string on the bounded worker pool. Results land by grid index, so the
// manifest is identical at any worker count. Cancelling ctx aborts
// between cells and surfaces ctx's error; it never changes results.
func Run(ctx context.Context, spec *Spec) (*Manifest, error) {
	plan, err := BuildPlan(spec)
	if err != nil {
		return nil, err
	}
	return RunPlan(ctx, plan)
}

// RunPlan executes an already-built plan (see BuildPlan): per source, in
// plan order, it loads the source, runs that source's slice of CellRefs
// through the cell executor at Spec.Workers and lets the source go; then
// AssembleManifest folds the outcomes. A CellRunner feeds the same
// executor one ref at a time and its outcomes fold through the same
// assembler, so the in-process manifest and the distributed one are the
// same bytes by construction.
func RunPlan(ctx context.Context, plan *Plan) (*Manifest, error) {
	refs := plan.CellRefs()
	perSource := len(plan.Policies) * len(plan.Capacities)
	outcomes := make([]CellOutcome, 0, len(refs))
	for idx := range plan.Sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ls, err := loadSource(plan, idx)
		if err != nil {
			return nil, err
		}
		got, err := plan.runCells(ctx, ls, refs[idx*perSource:(idx+1)*perSource], plan.Spec.Workers)
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, got...)
	}
	return AssembleManifest(plan, outcomes)
}

// runCells is the one cell executor: it replays refs — in-grid cells of
// the loaded source ls — on at most workers goroutines and returns their
// outcomes in ref order. Policies are built serially, one per cell in
// ref order, before the fan-out (stateful policies must never be shared
// between replays, and builders need not be goroutine-safe); capacities
// come from the source's identity block, which already holds the
// referenced-byte total.
func (p *Plan) runCells(ctx context.Context, ls *loadedSource, refs []CellRef, workers int) ([]CellOutcome, error) {
	cells := make([]migration.ReplayCell, len(refs))
	for i, r := range refs {
		cells[i] = migration.ReplayCell{
			Policy:   p.entries[r.Policy].mk(ls.accs),
			Capacity: migration.FractionCapacity(units.Bytes(ls.info.ReferencedBytes), p.Capacities[r.Capacity]),
		}
	}
	results, err := migration.ReplayCells(ctx, ls.accs, cells, workers)
	if err != nil {
		return nil, err
	}
	out := make([]CellOutcome, len(refs))
	for i, r := range refs {
		out[i] = CellOutcome{Ref: r, Source: ls.info,
			Cell: cellFrom(p.Capacities[r.Capacity], results[i], ls.info.Days)}
	}
	return out, nil
}

// loadedSource is one plan source in replay-ready form: its identity
// block and the shared access string every cell replays.
type loadedSource struct {
	info SourceInfo
	accs []migration.Access
}

// loadSource produces plan source idx: scenario sources are generated
// at the spec's scale, seed and length; the trailing trace source (if
// the spec names one) is streamed from disk.
func loadSource(plan *Plan, idx int) (*loadedSource, error) {
	if idx < 0 || idx >= len(plan.Sources) {
		return nil, fmt.Errorf("experiment: source index %d out of range [0, %d)", idx, len(plan.Sources))
	}
	name := plan.Sources[idx]
	if idx < len(plan.Spec.Scenarios) {
		cfg, err := workload.ScenarioConfig(name, plan.Spec.Scale, plan.Spec.Seed)
		if err != nil {
			return nil, err
		}
		if plan.Spec.Days > 0 {
			cfg.Days = plan.Spec.Days
		}
		gs, err := workload.GenerateStream(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: scenario %s: %w", name, err)
		}
		return drainSource(name, gs.Stream, float64(cfg.Days))
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	s, err := trace.OpenStream(f)
	if err != nil {
		return nil, fmt.Errorf("experiment: read %s: %w", name, err)
	}
	return drainSource(name, s, 0)
}

// drainSource drains one source's record stream — hashing the canonical
// encoding and building the shared access string on the fly, without
// holding the records. days <= 0 means "measure the span from the
// records".
func drainSource(name string, s trace.Stream, days float64) (*loadedSource, error) {
	h := sha256.New()
	var tw *trace.Writer
	in := trace.NewInterner()
	var accs []migration.Access
	records := 0
	var first, last time.Time
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: source %s: %w", name, err)
		}
		if tw == nil {
			// The canonical encoding anchors its wire epoch at the first
			// record (trace.WriteAll does the same), so streamed hashes
			// equal materialized ones.
			tw = trace.NewWriterEpoch(h, rec.Start)
			first = rec.Start
		}
		if err := tw.Write(&rec); err != nil {
			return nil, err
		}
		last = rec.Start
		records++
		accs = migration.AppendAccessInterned(in, accs, &rec)
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return nil, err
		}
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("experiment: source %s has no good accesses", name)
	}
	if days <= 0 {
		days = 1 // floor for degenerate spans, so per-day rates stay finite
		if records > 1 && last.After(first) {
			days = last.Sub(first).Hours() / 24
		}
	}
	return &loadedSource{
		info: SourceInfo{
			Name:            name,
			TraceSHA256:     fmt.Sprintf("%x", h.Sum(nil)),
			Records:         records,
			Accesses:        len(accs),
			ReferencedBytes: int64(migration.TotalReferencedBytes(accs)),
			Days:            days,
		},
		accs: accs,
	}, nil
}

// cellFrom converts one replay result into its manifest cell — the
// single place the cell arithmetic lives.
func cellFrom(frac float64, r migration.CacheResult, days float64) Cell {
	return Cell{
		CapacityFraction:    frac,
		CapacityBytes:       int64(r.Capacity),
		Reads:               r.Reads,
		ReadHits:            r.ReadHits,
		ReadMisses:          r.ReadMisses,
		WriteInserts:        r.WriteInserts,
		Evictions:           r.Evictions,
		StreamThroughs:      r.StreamThroughs,
		BytesRead:           int64(r.BytesRead),
		BytesMissed:         int64(r.BytesMissed),
		MissRatio:           r.MissRatio(),
		ByteMissRatio:       r.ByteMissRatio(),
		PersonMinutesPerDay: r.PersonMinutesPerDay(days, ExtraTapeLatency),
	}
}
