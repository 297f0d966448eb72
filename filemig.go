// Package filemig reproduces Miller & Katz, "An Analysis of File
// Migration in a Unix Supercomputing Environment" (USENIX Winter 1993):
// a trace-driven study of the NCAR mass storage system and its
// implications for file migration algorithms.
//
// The package is the public facade over the internal pieces:
//
//	workload — calibrated synthetic two-year trace generator (the paper's
//	           original logs are proprietary; the generator reproduces
//	           every published aggregate)
//	mss      — discrete-event simulator of the NCAR installation (disks,
//	           tape silo, operator-mounted shelf tape) that supplies
//	           request latencies
//	core     — the paper's analysis: Tables 3-4 and Figures 3-12, plus
//	           the day/week periodicity detection
//	migration— STP/LRU/size/FIFO/SAAC/OPT policies, the disk-cache
//	           simulator, request coalescing and prefetching
//
// The typical pipeline is Run, which generates a trace, replays it
// through the simulator, and analyses the result:
//
//	rep, err := filemig.Run(filemig.Config{Scale: 0.02, Seed: 1})
//	fmt.Print(core.RenderTable3(rep.Report.Table3))
package filemig

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"filemig/internal/core"
	"filemig/internal/host"
	"filemig/internal/migration"
	"filemig/internal/mss"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// Config configures an end-to-end pipeline run.
type Config struct {
	// Scale sizes the workload relative to the paper's two-year trace
	// (905,000 files, ~3.5 M requests). Scale 1.0 is paper scale; tests
	// and examples typically use 0.005-0.05. Must be in (0, 1].
	Scale float64
	// Seed makes the whole pipeline deterministic.
	Seed int64
	// Days shortens the trace from the paper's 731 days when positive.
	Days int
	// SkipSimulation leaves latency fields zero (faster; Table 3's
	// latency rows and Figure 3 will be empty).
	SkipSimulation bool
	// WriteBehind runs the simulator with §6's eager write-behind.
	WriteBehind bool
	// Workload overrides individual generator knobs; zero fields keep
	// the calibrated defaults.
	Bursts   *bool
	Holidays *bool
}

// Pipeline is the result of a Run: the generated artefacts, the simulated
// trace, and the finished analysis.
type Pipeline struct {
	Workload *workload.Result
	Records  []trace.Record // with simulated latencies unless SkipSimulation
	Report   *core.Report
	Sim      *mss.Simulator // nil when SkipSimulation
}

// workloadConfig maps the facade Config onto the generator's, applying
// the scale validation and optional overrides once for Run and RunStream.
func (cfg Config) workloadConfig() (workload.Config, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return workload.Config{}, fmt.Errorf("filemig: scale %v out of (0,1]", cfg.Scale)
	}
	wcfg := workload.DefaultConfig(cfg.Scale, cfg.Seed)
	if cfg.Days > 0 {
		wcfg.Days = cfg.Days
	}
	if cfg.Bursts != nil {
		wcfg.Bursts = *cfg.Bursts
	}
	if cfg.Holidays != nil {
		wcfg.Holidays = *cfg.Holidays
	}
	return wcfg, nil
}

// Run executes generate → simulate → analyse.
func Run(cfg Config) (*Pipeline, error) {
	wcfg, err := cfg.workloadConfig()
	if err != nil {
		return nil, err
	}
	res, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{Workload: res, Records: res.Records}
	if !cfg.SkipSimulation {
		scfg := mss.DefaultConfig(cfg.Seed)
		scfg.WriteBehind = cfg.WriteBehind
		p.Sim = mss.NewSimulator(scfg)
		p.Records, err = p.Sim.Replay(res.Records)
		if err != nil {
			return nil, err
		}
	}
	a := core.New(core.Options{Start: wcfg.Start, Days: wcfg.Days, Tree: res.Tree})
	a.AddAll(p.Records)
	p.Report = a.Report()
	return p, nil
}

// RunStream executes generate → analyse as a streaming pipeline: records
// flow one at a time from the workload generator into the analysis and
// none is retained, so peak memory holds the per-file state rather than
// the whole trace. SkipSimulation is implied — the streaming path never
// runs the MSS simulator, so latency fields stay zero (Table 3's latency
// rows and Figure 3 will be empty) — and the Report is byte-identical to
// the one Run produces for the same workload with SkipSimulation set.
func RunStream(cfg Config) (*core.Report, error) {
	return RunStreamContext(context.Background(), cfg)
}

// RunStreamContext is RunStream with cancellation: a cancelled ctx
// aborts the analysis within a few thousand records and surfaces ctx's
// error. Cancellation never changes results.
func RunStreamContext(ctx context.Context, cfg Config) (*core.Report, error) {
	wcfg, err := cfg.workloadConfig()
	if err != nil {
		return nil, err
	}
	sr, err := workload.GenerateStream(wcfg)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeStream(ctx, core.StreamOptions{
		Options: core.Options{Start: wcfg.Start, Days: wcfg.Days, Tree: sr.Tree},
	}, sr.Stream)
}

// AnalyzeTraceFile analyses one encoded trace file. Its format picks
// the mechanism (core.AccumulateStream): a b2 file is analysed through
// its trailing block index, shards cut by index arithmetic and blocks
// decoded on the worker pool, each exactly once; any other format is
// read sequentially and analysed record by record, where workers and
// shard are not used. The report is byte-identical either way, and to
// analysing the same records in one slice. workers <= 0 means one per
// CPU and shard <= 0 the default four-week width.
func AnalyzeTraceFile(path string, workers int, shard time.Duration) (*core.Report, error) {
	return AnalyzeTraceFileContext(context.Background(), path, workers, shard)
}

// AnalyzeTraceFileContext is AnalyzeTraceFile with cancellation,
// aborting between b2 block groups (or within a few thousand records of
// a sequential read) with ctx's error.
func AnalyzeTraceFileContext(ctx context.Context, path string, workers int, shard time.Duration) (*core.Report, error) {
	if workers <= 0 {
		workers = host.DefaultWorkers()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := trace.OpenStream(f)
	if err != nil {
		return nil, err
	}
	return core.AnalyzeStream(ctx, core.StreamOptions{
		Options:       core.Options{DedupWindow: workload.DedupWindow},
		ShardDuration: shard,
		Workers:       workers,
	}, s)
}

// SaveSnapshot analyses one encoded trace (ASCII v1, binary b1, or
// columnar b2, auto-detected) and writes the analysis state to dst as
// an s1 snapshot
// — the map step of a distributed analysis. Snapshots of trace slices
// made anywhere, by any worker, merge through MergeSnapshots into a
// report byte-identical to analysing the concatenated trace in one
// process; slices need not align with the eight-hour dedup window and
// workers need not agree on a calendar origin. The analysis is
// core.AccumulateStream's, so a b2 input is read through its block
// index, and memory stays proportional to the per-file state plus the
// journal, not the trace. See docs/snapshots.md for the format.
func SaveSnapshot(dst io.Writer, src io.Reader) error {
	s, err := trace.OpenStream(src)
	if err != nil {
		return err
	}
	a, err := core.AccumulateStream(context.Background(), core.StreamOptions{
		Options: core.Options{DedupWindow: workload.DedupWindow, Journal: true},
	}, s)
	if err != nil {
		return err
	}
	return a.WriteSnapshot(dst)
}

// MergeSnapshots loads s1 snapshots — in trace time order, one per
// disjoint contiguous trace slice — and merges them into a finished
// Pipeline carrying the combined Report: the reduce step pairing
// SaveSnapshot. Merging a single snapshot simply loads it. The
// resulting Pipeline has no Records, but every experiment renders from
// its Report, coalesce included.
func MergeSnapshots(snaps ...io.Reader) (*Pipeline, error) {
	a, err := core.MergeSnapshots(snaps...)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Report: a.Report()}, nil
}

// Accesses converts the pipeline's records into the migration
// simulator's access string.
func (p *Pipeline) Accesses() []migration.Access {
	return migration.AccessesFromRecords(p.Records)
}

// Coalesce is the §6 request-coalescing result at the analysis's dedup
// window (the paper's eight hours), as the analysis counted it: it reads
// the Report, not the Records, so a streamed or merged pipeline has it
// too.
func (p *Pipeline) Coalesce() migration.CoalesceResult {
	c := p.Report.Coalesce
	return migration.CoalesceResult{Window: c.Window, Requests: c.Requests, Savable: c.Savable, BytesSaved: c.BytesSaved}
}

// Experiment identifies one reproducible table or figure.
type Experiment struct {
	ID     string // "table3", "figure7", ...
	Title  string
	Render func(p *Pipeline) string
}

// Experiments returns the full registry, in paper order. Each entry's
// Render prints the reproduced table or figure from a finished pipeline.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: media comparison", func(*Pipeline) string {
			return renderTable1()
		}},
		{"figure1", "Figure 1: storage pyramid", func(*Pipeline) string {
			return renderFigure1()
		}},
		{"figure2", "Figure 2: NCAR network topology", func(*Pipeline) string {
			return renderFigure2()
		}},
		{"table3", "Table 3: overall trace statistics", func(p *Pipeline) string {
			return core.RenderTable3(p.Report.Table3)
		}},
		{"table4", "Table 4: file store statistics", func(p *Pipeline) string {
			return core.RenderTable4(p.Report.Table4)
		}},
		{"figure3", "Figure 3: latency to first byte", func(p *Pipeline) string {
			return core.RenderFigure3(p.Report)
		}},
		{"figure4", "Figure 4: data rate over a day", func(p *Pipeline) string {
			return core.RenderFigure4(p.Report.Figure4)
		}},
		{"figure5", "Figure 5: data rate over a week", func(p *Pipeline) string {
			return core.RenderFigure5(p.Report.Figure5)
		}},
		{"figure6", "Figure 6: weekly rate over two years", func(p *Pipeline) string {
			return core.RenderFigure6(p.Report.Figure6)
		}},
		{"figure7", "Figure 7: intervals between MSS requests", func(p *Pipeline) string {
			return core.RenderFigure7(p.Report.Figure7)
		}},
		{"figure8", "Figure 8: file reference counts", func(p *Pipeline) string {
			return core.RenderFigure8(p.Report.Figure8)
		}},
		{"figure9", "Figure 9: per-file interreference intervals", func(p *Pipeline) string {
			return core.RenderFigure9(p.Report.Figure9)
		}},
		{"figure10", "Figure 10: dynamic size distribution", func(p *Pipeline) string {
			return core.RenderFigure10(p.Report.Figure10)
		}},
		{"figure11", "Figure 11: static size distribution", func(p *Pipeline) string {
			return core.RenderFigure11(p.Report.Figure11)
		}},
		{"figure12", "Figure 12: directory size distribution", func(p *Pipeline) string {
			return core.RenderFigure12(p.Report.Figure12)
		}},
		{"periodicity", "§5.2: request periodicity", func(p *Pipeline) string {
			return core.RenderPeriodicity(p.Report)
		}},
		{"coalesce", "§6: requests savable by 8-hour coalescing", func(p *Pipeline) string {
			r := p.Coalesce()
			return fmt.Sprintf("Coalescing window %v: %d of %d requests savable (%.1f%%)\n",
				r.Window, r.Savable, r.Requests, 100*r.SavableFraction())
		}},
	}
}

// FindExperiment returns the experiment with the given ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// DedupWindow re-exports the paper's §5.3 eight-hour analysis window.
const DedupWindow = 8 * time.Hour
