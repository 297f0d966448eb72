package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sync"
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

// RunPlan executes an already-built plan (see BuildPlan) as one
// pipeline: all of CellRefs goes through the cell executor at
// Spec.Workers in a single pass, with no barrier between sources, while
// sources load ahead of their cells (see sourceLoader); then
// AssembleManifest folds the outcomes. A CellRunner feeds the same
// executor one ref at a time and its outcomes fold through the same
// assembler, so the in-process manifest and the distributed one are the
// same bytes by construction. On a failure or a cancelled ctx RunPlan
// returns only after every load it started has finished; a load stops
// within a few thousand records of ctx's cancellation.
func RunPlan(ctx context.Context, plan *Plan) (*Manifest, error) {
	ld := &sourceLoader{ctx: ctx, plan: plan, loads: make([]*sourceLoad, len(plan.Sources))}
	outcomes, err := plan.runCells(ctx, plan.CellRefs(), ld.source, plan.Spec.Workers)
	ld.wg.Wait()
	if err != nil {
		return nil, err
	}
	return AssembleManifest(plan, outcomes)
}

// runCells is the one cell executor: it replays refs — in-grid cells,
// each source's contiguous — on at most workers goroutines and returns
// their outcomes in ref order. It asks source for each source at that
// source's first ref and lets it go after its last, so an access string
// lives only while its cells are built or replaying; each outcome keeps
// a copy of the SourceInfo. Policies are built on the calling goroutine,
// one per cell in ref order, as the workers free up (stateful policies
// must never be shared between replays, and builders need not be
// goroutine-safe); capacities come from the source's identity block,
// which already holds the referenced-byte total.
func (p *Plan) runCells(ctx context.Context, refs []CellRef,
	source func(ctx context.Context, idx int) (*loadedSource, error), workers int) ([]CellOutcome, error) {
	out := make([]CellOutcome, len(refs))
	var ls *loadedSource
	err := migration.ReplayCells(ctx, workers, len(refs),
		func(i int) (migration.ReplayCell, error) {
			r := refs[i]
			if i == 0 || r.Source != refs[i-1].Source {
				ls = nil // let the previous source go before the next arrives
				var err error
				if ls, err = source(ctx, r.Source); err != nil {
					return migration.ReplayCell{}, err
				}
			}
			// Set before the cell reaches a worker, which fills in Cell.
			out[i] = CellOutcome{Ref: r, Source: ls.info}
			return migration.ReplayCell{
				Accs:     ls.accs,
				Policy:   p.entries[r.Policy].mk(ls),
				Capacity: migration.FractionCapacity(units.Bytes(ls.info.ReferencedBytes), p.Capacities[r.Capacity]),
			}, nil
		},
		func(i int, res migration.CacheResult) {
			out[i].Cell = cellFrom(p.Capacities[out[i].Ref.Capacity], res, out[i].Source.Days)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sourceLoader loads RunPlan's sources ahead of their cells, each on its
// own goroutine: asked for source k, it starts sources k and k+1 (so
// sources 0 and 1 at once) and waits for k. It lets go of each source as
// it hands it over, so at most three access strings are live at once —
// source k-1's, whose last cells are replaying, k's and k+1's — unless
// one cell of source k-2 outlasts every cell of source k-1.
type sourceLoader struct {
	ctx   context.Context // RunPlan's: cancelling it stops every load
	plan  *Plan
	loads []*sourceLoad // by source index; nil until started
	wg    sync.WaitGroup
}

// sourceLoad is one source's load: done closes once ls or err is set.
type sourceLoad struct {
	done chan struct{}
	ls   *loadedSource
	err  error
}

// start begins loading source idx unless it is out of range or started.
func (l *sourceLoader) start(idx int) {
	if idx >= len(l.loads) || l.loads[idx] != nil {
		return
	}
	ld := &sourceLoad{done: make(chan struct{})}
	l.loads[idx] = ld
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		ld.ls, ld.err = loadSource(l.ctx, l.plan, idx)
		close(ld.done)
	}()
}

// source starts sources idx and idx+1 and waits for idx, or for ctx. It
// is called from one goroutine, once per source.
func (l *sourceLoader) source(ctx context.Context, idx int) (*loadedSource, error) {
	l.start(idx)
	l.start(idx + 1)
	ld := l.loads[idx]
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-ld.done:
	}
	ls := ld.ls
	ld.ls = nil
	return ls, ld.err
}

// loadedSource is one plan source in replay-ready form: its identity
// block, the shared access string every cell replays and, when a policy
// column reads it, the string's future-reference rows, which every OPT
// cell of the source views through its own cursors.
type loadedSource struct {
	info   SourceInfo
	accs   []migration.Access
	future *migration.FutureRows
}

// loadSource produces plan source idx: scenario sources are generated
// at the spec's scale, seed and length; the trailing trace source (if
// the spec names one) is streamed from disk.
func loadSource(ctx context.Context, plan *Plan, idx int) (*loadedSource, error) {
	ls, err := drainPlanSource(ctx, plan, idx)
	if err != nil {
		return nil, err
	}
	for _, e := range plan.entries {
		if e.future {
			ls.future = migration.NewFutureRows(ls.accs)
			break
		}
	}
	return ls, nil
}

// drainPlanSource opens plan source idx as a record stream and drains
// it (drainSource). A generated source knows its size up front — the
// records its plan yields and the files its population holds — and
// reserves the access string and path table from them; a trace file
// leaves both to grow.
func drainPlanSource(ctx context.Context, plan *Plan, idx int) (*loadedSource, error) {
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
		return drainSource(ctx, name, gs.Stream, float64(cfg.Days), sourceSize{gs.Planned, len(gs.Population.Files)})
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
	return drainSource(ctx, name, s, 0, sourceSize{})
}

// drainCheckEvery is how many records drainSource reads between checks
// of its ctx.
const drainCheckEvery = 4096

// sourceSize is what a source knows of its size before it is drained,
// zero where it knows nothing: records bounds the accesses (error
// records yield none) and files the distinct paths.
type sourceSize struct {
	records, files int
}

// drainSource drains one source's record stream — hashing the canonical
// encoding and building the shared access string on the fly, without
// holding the records. The string and the path table start at size's
// bounds. days <= 0 means "measure the span from the records". It
// checks ctx every drainCheckEvery records and returns ctx's error once
// it is cancelled.
func drainSource(ctx context.Context, name string, s trace.Stream, days float64, size sourceSize) (*loadedSource, error) {
	h := sha256.New()
	var tw *trace.Writer
	in := trace.NewInterner()
	in.Grow(size.files)
	accs := make([]migration.Access, 0, size.records)
	records := 0
	var first, last time.Time
	for {
		if records%drainCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("experiment: source %s: %w", name, err)
		}
		if tw == nil {
			// The canonical encoding anchors its wire epoch at the first
			// record (trace.WriteAllFormat does the same), so streamed hashes
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
