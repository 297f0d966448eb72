package filemig

// The benchmark harness: one benchmark per table and figure of the paper,
// plus the DESIGN.md ablations. Each benchmark regenerates its table or
// figure from a shared, deterministically generated fixture and reports
// the headline reproduction metric alongside the timing (via
// b.ReportMetric), so `go test -bench=.` doubles as the experiment
// harness behind EXPERIMENTS.md.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/device"
	"filemig/internal/dist"
	"filemig/internal/experiment"
	"filemig/internal/migration"
	"filemig/internal/mss"
	"filemig/internal/serve"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// benchScale keeps the full suite laptop-sized (~9k files, ~35k requests
// over the full 731-day calendar). Raise to 1.0 to regenerate the paper's
// absolute counts.
const benchScale = 0.01

var benchFixture struct {
	sync.Once
	pipe *Pipeline
	accs []migration.Access
	err  error
}

func fixture(b *testing.B) (*Pipeline, []migration.Access) {
	benchFixture.Do(func() {
		benchFixture.pipe, benchFixture.err = Run(Config{Scale: benchScale, Seed: 1993})
		if benchFixture.err == nil {
			benchFixture.accs = benchFixture.pipe.Accesses()
		}
	})
	if benchFixture.err != nil {
		b.Fatalf("fixture: %v", benchFixture.err)
	}
	return benchFixture.pipe, benchFixture.accs
}

// analyze runs a fresh full analysis pass; the per-figure benchmarks call
// it so each measures the real cost of regenerating its result.
func analyze(p *Pipeline) *core.Report {
	a := core.New(core.Options{Start: p.Workload.Config.Start, Days: p.Workload.Config.Days})
	a.AddAll(p.Records)
	return a.Report()
}

// --- Tables ---

func BenchmarkTable1MediaComparison(b *testing.B) {
	var crossover units.Bytes
	for i := 0; i < b.N; i++ {
		rows := device.Table1()
		if len(rows) != 3 {
			b.Fatal("table 1 incomplete")
		}
		crossover = device.CrossoverSize(&device.OpticalJukebox, &device.SiloTape3480,
			units.Bytes(200*units.MB))
	}
	b.ReportMetric(crossover.MB(), "crossoverMB")
}

func BenchmarkTable2TraceCodec(b *testing.B) {
	p, _ := fixture(b)
	n := len(p.Records)
	if n > 20000 {
		n = 20000
	}
	recs := p.Records[:n]
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, recs, trace.FormatASCII); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			got, err := trace.ReadAll(bytes.NewReader(encoded))
			if err != nil || len(got) != n {
				b.Fatalf("decode: %v (%d records)", err, len(got))
			}
		}
		b.ReportMetric(float64(len(encoded))/float64(n), "bytes/rec")
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			if err := trace.WriteAllFormat(io.Discard, recs, trace.FormatASCII); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	})
}

// BenchmarkTraceCodecBinary is BenchmarkTable2TraceCodec over the binary
// b1 format: same records, fewer bytes, faster decode. Compare the two
// benchmarks' MB/s, recs/s and bytes/rec.
func BenchmarkTraceCodecBinary(b *testing.B) {
	p, _ := fixture(b)
	n := len(p.Records)
	if n > 20000 {
		n = 20000
	}
	recs := p.Records[:n]
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, recs, trace.FormatBinary); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.SetBytes(int64(len(encoded)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := trace.ReadAll(bytes.NewReader(encoded))
		if err != nil || len(got) != n {
			b.Fatalf("decode: %v (%d records)", err, len(got))
		}
	}
	b.ReportMetric(float64(len(encoded))/float64(n), "bytes/rec")
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

// BenchmarkStreamAnalyze is the tentpole benchmark for the streaming
// analysis path: the same encoded trace analysed by materializing every
// record first (slice) versus record by record off the decoder (stream).
// ReportAllocs shows total allocation; the liveRecs metric shows the
// memory shape — how many records each path holds at once: the whole
// trace for the slice path, none for the stream.
func BenchmarkStreamAnalyze(b *testing.B) {
	p, _ := fixture(b)
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, p.Records, trace.FormatBinary); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	opts := core.Options{DedupWindow: workload.DedupWindow}
	check := func(b *testing.B, r *core.Report) {
		if r.Table3.GrandTotal == 0 {
			b.Fatal("empty report")
		}
	}
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(p.Records)), "liveRecs")
		for i := 0; i < b.N; i++ {
			recs, err := trace.ReadAll(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			a := core.New(opts)
			a.AddAll(recs)
			check(b, a.Report())
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(0, "liveRecs")
		for i := 0; i < b.N; i++ {
			src, err := trace.OpenStream(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := core.AnalyzeStream(context.Background(), core.StreamOptions{Options: opts}, src)
			if err != nil {
				b.Fatal(err)
			}
			check(b, rep)
		}
	})
	// The in-memory variant isolates the analysis itself from codec
	// decode.
	b.Run("inmem-slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := core.New(opts)
			a.AddAll(p.Records)
			check(b, a.Report())
		}
	})
}

// BenchmarkB2Decode measures the b2 columnar codec next to
// BenchmarkTraceCodecBinary: the same records through the sequential
// whole-block reader and through the seekable index + parallel block
// decoder.
func BenchmarkB2Decode(b *testing.B) {
	p, _ := fixture(b)
	n := len(p.Records)
	if n > 20000 {
		n = 20000
	}
	recs := p.Records[:n]
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, recs, trace.FormatB2); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			got, err := trace.ReadAll(bytes.NewReader(encoded))
			if err != nil || len(got) != n {
				b.Fatalf("decode: %v (%d records)", err, len(got))
			}
		}
		b.ReportMetric(float64(len(encoded))/float64(n), "bytes/rec")
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	})
	b.Run("parallel-workers=4", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(encoded)))
		for i := 0; i < b.N; i++ {
			f, err := trace.OpenB2File(bytes.NewReader(encoded), int64(len(encoded)))
			if err != nil {
				b.Fatal(err)
			}
			got, err := trace.Collect(f.Stream(4))
			if err != nil || len(got) != n {
				b.Fatalf("decode: %v (%d records)", err, len(got))
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "recs/s")
	})
}

// BenchmarkStreamAnalyzeB2 is BenchmarkStreamAnalyze's trace re-encoded
// as b2, analysed on the index-seek path both ways in — shard cutting
// from the block index, block decode on a pool, no record-level
// streaming at all. The stream variant hands AnalyzeStream the seekable
// b2 stream OpenStream returns, which it takes through the index on one
// worker (its options set no Workers); the indexseek variant calls
// AnalyzeB2 with four. The gap between them is the worker pool's.
func BenchmarkStreamAnalyzeB2(b *testing.B) {
	p, _ := fixture(b)
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, p.Records, trace.FormatB2); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	const shardDur = 28 * 24 * time.Hour
	const workers = 4
	opts := core.Options{DedupWindow: workload.DedupWindow}
	check := func(b *testing.B, r *core.Report) {
		if r.Table3.GrandTotal == 0 {
			b.Fatal("empty report")
		}
	}
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, err := trace.OpenStream(bytes.NewReader(encoded))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := core.AnalyzeStream(context.Background(), core.StreamOptions{Options: opts}, src)
			if err != nil {
				b.Fatal(err)
			}
			check(b, rep)
		}
	})
	b.Run(fmt.Sprintf("indexseek-workers=%d", workers), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := trace.OpenB2File(bytes.NewReader(encoded), int64(len(encoded)))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := core.AnalyzeB2(context.Background(), core.B2Options{StreamOptions: core.StreamOptions{
				Options: opts, Workers: workers, ShardDuration: shardDur}}, f)
			if err != nil {
				b.Fatal(err)
			}
			check(b, rep)
		}
	})
}

// BenchmarkSnapshotRoundTrip measures the s1 snapshot codec on the
// fixture workload: serializing a journaled analysis, and merging two
// snapshot halves back into one analysis (decode + journal replay).
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	p, _ := fixture(b)
	journaled := func(recs []trace.Record) *core.Analysis {
		a := core.New(core.Options{Journal: true})
		a.AddAll(recs)
		return a
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		a := journaled(p.Records)
		var size int64
		for i := 0; i < b.N; i++ {
			var n countingWriter
			if err := a.WriteSnapshot(&n); err != nil {
				b.Fatal(err)
			}
			size = int64(n)
		}
		b.SetBytes(size)
		b.ReportMetric(float64(size)/float64(len(p.Records)), "bytes/rec")
	})
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		var h1, h2 bytes.Buffer
		if err := journaled(p.Records[:len(p.Records)/2]).WriteSnapshot(&h1); err != nil {
			b.Fatal(err)
		}
		if err := journaled(p.Records[len(p.Records)/2:]).WriteSnapshot(&h2); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(h1.Len() + h2.Len()))
		for i := 0; i < b.N; i++ {
			a, err := core.MergeSnapshots(bytes.NewReader(h1.Bytes()), bytes.NewReader(h2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if a == nil {
				b.Fatal("nil analysis")
			}
		}
	})
}

// countingWriter discards output while counting it, so encode
// benchmarks measure the codec rather than buffer growth.
type countingWriter int64

func (c *countingWriter) Write(b []byte) (int, error) {
	*c += countingWriter(len(b))
	return len(b), nil
}

// BenchmarkGenerateStream compares materializing generation against the
// lazy plan-merge stream feeding the analysis directly — the RunStream
// pipeline against Run with SkipSimulation.
func BenchmarkGenerateStream(b *testing.B) {
	cfg := Config{Scale: 0.005, Seed: 1993, SkipSimulation: true}
	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if p.Report.Table3.GrandTotal == 0 {
				b.Fatal("empty report")
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := RunStream(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Table3.GrandTotal == 0 {
				b.Fatal("empty report")
			}
		}
	})
}

func BenchmarkTable3OverallStats(b *testing.B) {
	p, _ := fixture(b)
	var readShare float64
	for i := 0; i < b.N; i++ {
		r := analyze(p)
		total := r.Table3.Total()
		readShare = float64(r.Table3.OpTotal(trace.Read).Refs) / float64(total.Refs)
	}
	b.ReportMetric(100*readShare, "readShare%") // paper: 66%
}

func BenchmarkTable4FileStore(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var avgMB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		avgMB = r.Table4.AvgFileSize.MB()
		_ = core.RenderTable4(r.Table4)
	}
	b.ReportMetric(avgMB, "avgFileMB") // paper: 25 MB
}

// --- Figures ---

func BenchmarkFigure1Pyramid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := device.HierarchyInvariant(device.Hierarchy()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(mss.Topology()) < 5 {
			b.Fatal("topology incomplete")
		}
	}
}

func BenchmarkFigure3LatencyCDF(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var diskMedian float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.RenderFigure3(r)
		diskMedian = r.Figure3[device.ClassDisk].Median()
	}
	b.ReportMetric(diskMedian, "diskMedianSec") // paper: 4 s
}

func BenchmarkFigure4HourOfDay(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var swing float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak, trough := 0.0, 1e18
		for h := 0; h < 24; h++ {
			rate := r.Figure4.ReadRate(h)
			if rate > peak {
				peak = rate
			}
			if rate < trough {
				trough = rate
			}
		}
		swing = peak / trough
	}
	b.ReportMetric(swing, "readPeakTrough") // strongly diurnal
}

func BenchmarkFigure5DayOfWeek(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var dip float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weekday := (r.Figure5.ReadRate(2) + r.Figure5.ReadRate(3) + r.Figure5.ReadRate(4)) / 3
		weekend := (r.Figure5.ReadRate(0) + r.Figure5.ReadRate(6)) / 2
		dip = weekend / weekday
	}
	b.ReportMetric(dip, "weekendOverWeekday") // paper: well under 1
}

func BenchmarkFigure6WeeklyTrend(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var growth float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weeks := r.Figure6.Weeks
		q := len(weeks) / 4
		first, last := 0.0, 0.0
		for j := 0; j < q; j++ {
			first += weeks[j].ReadGBh
			last += weeks[len(weeks)-1-j].ReadGBh
		}
		growth = last / first
	}
	b.ReportMetric(growth, "readGrowth2y") // paper: roughly doubles
}

func BenchmarkFigure7Interarrival(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var knee float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knee = r.Figure7.P(10)
	}
	b.ReportMetric(100*knee, "under10s%") // paper: 90% at full scale
}

func BenchmarkFigure8RefCounts(b *testing.B) {
	p, _ := fixture(b)
	var once float64
	for i := 0; i < b.N; i++ {
		r := analyze(p)
		once = r.Figure8.ExactlyOnceFrac
	}
	b.ReportMetric(100*once, "accessedOnce%") // paper: 57%
}

func BenchmarkFigure9FileInterref(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var underDay float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		underDay = r.Figure9.P(1)
	}
	b.ReportMetric(100*underDay, "underOneDay%") // paper: 70%
}

func BenchmarkFigure10DynamicSizes(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var under1MB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, fw := r.Figure10.FilesRead, r.Figure10.FilesWritten
		under1MB = (fr.P(1e6)*float64(fr.N()) + fw.P(1e6)*float64(fw.N())) /
			float64(fr.N()+fw.N())
	}
	b.ReportMetric(100*under1MB, "requestsUnder1MB%") // paper: 40%
}

func BenchmarkFigure11StaticSizes(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var under3MB float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		under3MB = r.Figure11.Files.P(3e6)
	}
	b.ReportMetric(100*under3MB, "filesUnder3MB%") // paper: ~50%
}

func BenchmarkFigure12DirectorySizes(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var small float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		small = r.Figure12.Dirs.P(10)
	}
	b.ReportMetric(100*small, "dirsUnder10Files%") // paper: 90%
}

// --- Section-level results and ablations ---

func BenchmarkPeriodicityDetection(b *testing.B) {
	p, _ := fixture(b)
	r := analyze(p)
	var day float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		periods := r.DominantPeriods(2)
		if len(periods) > 0 {
			day = periods[0]
		}
	}
	b.ReportMetric(day, "topPeriodHours") // paper: 24
}

func BenchmarkCoalescingSavings(b *testing.B) {
	p, _ := fixture(b)
	b.ReportAllocs()
	var frac float64
	c := migration.NewCoalescer()
	for i := 0; i < b.N; i++ {
		frac = c.Run(p.Records, DedupWindow).SavableFraction()
	}
	b.ReportMetric(100*frac, "savable%") // paper: ~33%
}

func BenchmarkCoalescingWindowSweep(b *testing.B) {
	p, _ := fixture(b)
	windows := []time.Duration{time.Hour, 4 * time.Hour, 8 * time.Hour, 24 * time.Hour}
	for i := 0; i < b.N; i++ {
		res := migration.CoalesceSweep(p.Records, windows)
		if len(res) != len(windows) {
			b.Fatal("sweep incomplete")
		}
	}
}

// paperPolicies is the §2.3/§6 comparison set migsim runs by default:
// the paper's online policies and the offline OPT bound over accs.
func paperPolicies(accs []migration.Access) []migration.Policy {
	return []migration.Policy{migration.STP{K: 1.4}, migration.STP{K: 1.0}, migration.LRU{},
		migration.SAAC{}, migration.FIFO{}, migration.LargestFirst{}, migration.SmallestFirst{},
		migration.NewRandom(1), migration.NewOPT(migration.NewFutureIndex(accs))}
}

// modernPolicies is the post-1993 frontier, fresh instances each call.
func modernPolicies([]migration.Access) []migration.Policy {
	return []migration.Policy{migration.NewARC(), migration.NewLRUK(2), migration.NewGDSF(),
		migration.NewCostAware(migration.DefaultTapeRateMBps), migration.NewAdaptiveSTP()}
}

// replayAll replays cells through migration.ReplayCells at the given
// worker count (0 = serial) and returns the results in cell order.
func replayAll(cells []migration.ReplayCell, workers int) ([]migration.CacheResult, error) {
	out := make([]migration.CacheResult, len(cells))
	err := migration.ReplayCells(context.Background(), workers, len(cells),
		func(i int) (migration.ReplayCell, error) { return cells[i], nil },
		func(i int, r migration.CacheResult) { out[i] = r })
	return out, err
}

// policyCells is one cell per policy at one capacity.
func policyCells(accs []migration.Access, capacity units.Bytes, policies []migration.Policy) []migration.ReplayCell {
	cells := make([]migration.ReplayCell, len(policies))
	for i, p := range policies {
		cells[i] = migration.ReplayCell{Accs: accs, Policy: p, Capacity: capacity}
	}
	return cells
}

// stpCapacityCells is one STP^1.4 cell per capacity fraction.
func stpCapacityCells(accs []migration.Access, fractions []float64) []migration.ReplayCell {
	total := migration.TotalReferencedBytes(accs)
	cells := make([]migration.ReplayCell, len(fractions))
	for i, frac := range fractions {
		cells[i] = migration.ReplayCell{Accs: accs, Policy: migration.STP{K: 1.4},
			Capacity: migration.FractionCapacity(total, frac)}
	}
	return cells
}

func BenchmarkPolicyComparison(b *testing.B) {
	_, accs := fixture(b)
	capacity := migration.TotalReferencedBytes(accs) / 50
	b.ReportAllocs()
	var stpMiss float64
	for i := 0; i < b.N; i++ {
		results, err := replayAll(policyCells(accs, capacity, paperPolicies(accs)), 0)
		if err != nil {
			b.Fatal(err)
		}
		stpMiss = results[0].MissRatio() // STP^1.4
	}
	b.ReportMetric(100*stpMiss, "stpMiss%")
}

// BenchmarkPolicyComparisonModern races the paper's nine-policy set
// against the five post-1993 policies on the same fixture and capacity:
// the modern set's stateful bookkeeping (ARC ghost lists, LRU-K
// histories, greedy-dual clocks, STP fits) must hold the same
// ~0 allocs/record steady state as the classic set.
func BenchmarkPolicyComparisonModern(b *testing.B) {
	_, accs := fixture(b)
	capacity := migration.TotalReferencedBytes(accs) / 50
	sets := []struct {
		name  string
		build func([]migration.Access) []migration.Policy
	}{
		{"classic", paperPolicies},
		{"modern", modernPolicies},
	}
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := replayAll(policyCells(accs, capacity, set.build(accs)), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPolicyComparisonSerialScan is the pre-refactor baseline for
// BenchmarkPolicyComparison: one worker and every policy forced onto the
// scan path.
func BenchmarkPolicyComparisonSerialScan(b *testing.B) {
	_, accs := fixture(b)
	capacity := migration.TotalReferencedBytes(accs) / 50
	for i := 0; i < b.N; i++ {
		policies := paperPolicies(accs)
		for j, p := range policies {
			policies[j] = migration.ScanOnly{P: p}
		}
		if _, err := replayAll(policyCells(accs, capacity, policies), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCapacitySweep(b *testing.B) {
	_, accs := fixture(b)
	fractions := []float64{0.005, 0.015, 0.05}
	var missAt15 float64
	for i := 0; i < b.N; i++ {
		res, err := replayAll(stpCapacityCells(accs, fractions), 0)
		if err != nil {
			b.Fatal(err)
		}
		missAt15 = res[1].MissRatio()
	}
	b.ReportMetric(100*missAt15, "missAt1.5%Cache%") // Smith: ~1% at NCAR rates
}

// BenchmarkCapacitySweepSerial is the serial baseline for
// BenchmarkCapacitySweep.
func BenchmarkCapacitySweepSerial(b *testing.B) {
	_, accs := fixture(b)
	fractions := []float64{0.005, 0.015, 0.05}
	for i := 0; i < b.N; i++ {
		if _, err := replayAll(stpCapacityCells(accs, fractions), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvictionHeap measures the tentpole directly: the same LRU
// replay with the indexed eviction heap versus the forced scan fallback.
func BenchmarkEvictionHeap(b *testing.B) {
	benchVictimPaths(b, "heap", migration.LRU{})
}

// benchVictimPaths replays the fixture at 1/50 capacity under p on its
// own victim path (sub-benchmark fast) and under ScanOnly{p} ("scan").
func benchVictimPaths(b *testing.B, fast string, p migration.Policy) {
	_, accs := fixture(b)
	capacity := migration.TotalReferencedBytes(accs) / 50
	run := func(b *testing.B, p migration.Policy) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := migration.NewCache(migration.CacheConfig{Capacity: capacity, Policy: p})
			if err != nil {
				b.Fatal(err)
			}
			c.Replay(accs)
		}
	}
	b.Run(fast, func(b *testing.B) { run(b, p) })
	b.Run("scan", func(b *testing.B) { run(b, migration.ScanOnly{P: p}) })
}

// BenchmarkEvictionAged is the same comparison for the aged index: one
// STP^1.4 replay picking victims through the weight-class index versus
// the forced full scan — identical victims, far fewer Rank calls.
func BenchmarkEvictionAged(b *testing.B) {
	benchVictimPaths(b, "index", migration.STP{K: 1.4})
}

// replayScaling caches BenchmarkReplayScaling's access strings by
// scale: each is generated once however often the benchmark reruns.
var replayScaling struct {
	sync.Mutex
	accs map[float64][]migration.Access
}

// BenchmarkReplayScaling replays STP^1.4 at 1 % capacity over the
// paper-1993 scenario (seed 1993) at scales 0.01 and 0.1, a fresh cache
// per iteration, and reports ns/access: a victim path whose work grows
// with the resident count shows here as a ratio between the two rows.
func BenchmarkReplayScaling(b *testing.B) {
	for _, scale := range []float64{0.01, 0.1} {
		b.Run(strconv.FormatFloat(scale, 'g', -1, 64), func(b *testing.B) {
			replayScaling.Lock()
			accs, ok := replayScaling.accs[scale]
			if !ok {
				cfg, err := ScenarioConfig("paper-1993", scale, 1993)
				if err != nil {
					b.Fatal(err)
				}
				res, err := workload.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				accs = migration.AccessesFromRecords(res.Records)
				if replayScaling.accs == nil {
					replayScaling.accs = map[float64][]migration.Access{}
				}
				replayScaling.accs[scale] = accs
			}
			replayScaling.Unlock()
			capacity := migration.FractionCapacity(migration.TotalReferencedBytes(accs), 0.01)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := migration.NewCache(migration.CacheConfig{Capacity: capacity, Policy: migration.STP{K: 1.4}})
				if err != nil {
					b.Fatal(err)
				}
				c.Replay(accs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
		})
	}
}

func BenchmarkSTPExponentSweep(b *testing.B) {
	_, accs := fixture(b)
	capacity := migration.TotalReferencedBytes(accs) / 50
	ks := []float64{0, 0.5, 1.0, 1.4, 2.0}
	policies := make([]migration.Policy, len(ks))
	for i, k := range ks {
		policies[i] = migration.STP{K: k}
	}
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := replayAll(policyCells(accs, capacity, policies), 0)
		if err != nil {
			b.Fatal(err)
		}
		bi := 0
		for j, r := range res {
			if r.MissRatio() < res[bi].MissRatio() {
				bi = j
			}
		}
		best = ks[bi]
	}
	b.ReportMetric(best, "bestExponent") // Smith: 1.4 region
}

func BenchmarkPlacementThresholdSweep(b *testing.B) {
	_, accs := fixture(b)
	thresholds := []units.Bytes{
		units.Bytes(units.MB), units.Bytes(10 * units.MB),
		units.Bytes(30 * units.MB), units.Bytes(100 * units.MB),
	}
	capacity := migration.TotalReferencedBytes(accs) / 50
	var bestMB float64
	for i := 0; i < b.N; i++ {
		res, err := migration.PlacementSweep(accs, thresholds, capacity,
			30*time.Second, 104*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		best := res[0]
		for _, r := range res[1:] {
			if r.MeanFirstByte < best.MeanFirstByte {
				best = r
			}
		}
		bestMB = best.Threshold.MB()
	}
	b.ReportMetric(bestMB, "bestThresholdMB") // NCAR used 30 MB
}

func BenchmarkWriteBehind(b *testing.B) {
	p, _ := fixture(b)
	n := len(p.Workload.Records)
	if n > 15000 {
		n = 15000
	}
	recs := p.Workload.Records[:n]
	var cut float64
	for i := 0; i < b.N; i++ {
		base := meanWriteStartup(b, recs, false, int64(i))
		wb := meanWriteStartup(b, recs, true, int64(i))
		cut = wb / base
	}
	b.ReportMetric(cut, "writeLatencyRatio") // well under 1
}

func meanWriteStartup(b *testing.B, recs []trace.Record, writeBehind bool, seed int64) float64 {
	cfg := mss.DefaultConfig(seed)
	cfg.WriteBehind = writeBehind
	sim := mss.NewSimulator(cfg)
	out, err := sim.Replay(recs)
	if err != nil {
		b.Fatal(err)
	}
	var m stats.Moments
	for _, r := range out {
		if r.OK() && r.Op == trace.Write {
			m.Add(r.Startup.Seconds())
		}
	}
	return m.Mean()
}

func BenchmarkBurstPackingAblation(b *testing.B) {
	off := false
	flat, err := Run(Config{Scale: 0.003, Seed: 4, SkipSimulation: true, Bursts: &off})
	if err != nil {
		b.Fatal(err)
	}
	p, _ := fixture(b)
	var delta float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knee := func(recs []trace.Record) float64 {
			var c stats.CDF
			for j := 1; j < len(recs); j++ {
				c.Add(recs[j].Start.Sub(recs[j-1].Start).Seconds())
			}
			return c.P(10)
		}
		delta = knee(p.Records) - knee(flat.Records)
	}
	b.ReportMetric(100*delta, "burstKneeGain%")
}

// --- Extension features (paper §5.1.1, §5.4, §6, reference [4]) ---

func BenchmarkCutThrough(b *testing.B) {
	p, _ := fixture(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		// 1 MB/s application consumption, the paper's premise that apps
		// read slower than the MSS delivers.
		speedup = mss.CutThroughReport(p.Records, 1e6).Speedup()
	}
	b.ReportMetric(speedup, "perceivedSpeedup")
}

func BenchmarkTapeStriping(b *testing.B) {
	var crossoverMB float64
	for i := 0; i < b.N; i++ {
		x := device.StripeCrossover(device.SiloTape3480, 4, units.Bytes(200*units.MB))
		crossoverMB = x.MB()
	}
	b.ReportMetric(crossoverMB, "stripeWinAboveMB")
}

func BenchmarkOpticalSmallFiles(b *testing.B) {
	p, _ := fixture(b)
	// Small-file (disk-class) requests only, §5.4's candidate for an
	// optical jukebox.
	var small []trace.Record
	for _, r := range p.Workload.Records {
		if r.OK() && r.Device == device.ClassDisk && len(small) < 8000 {
			small = append(small, r)
		}
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := mss.DefaultConfig(int64(i))
		base := mss.NewSimulator(cfg)
		baseOut, err := base.Replay(small)
		if err != nil {
			b.Fatal(err)
		}
		cfg2 := mss.DefaultConfig(int64(i))
		cfg2.SmallOnOptical = true
		opt := mss.NewSimulator(cfg2)
		optOut, err := opt.Replay(small)
		if err != nil {
			b.Fatal(err)
		}
		var bm, om stats.Moments
		for j := range baseOut {
			bm.Add(baseOut[j].Startup.Seconds())
			om.Add(optOut[j].Startup.Seconds())
		}
		ratio = om.Mean() / bm.Mean()
	}
	b.ReportMetric(ratio, "opticalOverDiskLatency")
}

// --- Substrate throughput ---

func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// One seed for every iteration: benchgate compares allocs/op, which
		// must not depend on how many iterations a run asked for.
		res, err := workload.Generate(workload.DefaultConfig(0.002, 1993))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkMSSReplay replays one trace through the MSS simulator as a
// slice (Replay) and as a stream (ReplayStream, which holds only the
// requests in flight). One seed for every iteration, so allocs/op does
// not depend on the iteration count.
func BenchmarkMSSReplay(b *testing.B) {
	p, _ := fixture(b)
	n := len(p.Workload.Records)
	if n > 15000 {
		n = 15000
	}
	recs := p.Workload.Records[:n]
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := mss.NewSimulator(mss.DefaultConfig(1993)).Replay(recs)
			if err != nil || len(out) != n {
				b.Fatalf("replay: %v (%d records)", err, len(out))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n)/float64(b.N), "ns/rec")
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := mss.NewSimulator(mss.DefaultConfig(1993)).ReplayStream(trace.SliceStream(recs))
			got := 0
			for {
				if _, err := st.Next(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				got++
			}
			if got != n {
				b.Fatalf("replayed %d of %d records", got, n)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n)/float64(b.N), "ns/rec")
	})
}

// BenchmarkDistributedGrid prices the coordinator/worker fan-out
// against the in-process grid runner on the same 18-cell quickgrid
// plan: "inprocess" is experiment.RunPlan with a local pool,
// "distributed-workers=2" serves every cell over loopback HTTP to two
// in-process workers — leases, framing, journal-less claim/result
// round-trips and the ordered merge included. Both assemble the
// identical manifest; the delta is the fan-out tax documented in
// docs/distributed.md.
func BenchmarkDistributedGrid(b *testing.B) {
	raw, err := os.ReadFile(filepath.Join("testdata", "quickgrid.json"))
	if err != nil {
		b.Fatal(err)
	}
	spec, err := experiment.Parse(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("inprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := experiment.BuildPlan(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := experiment.RunPlan(context.Background(), plan); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("distributed-workers=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := experiment.BuildPlan(spec)
			if err != nil {
				b.Fatal(err)
			}
			g, err := dist.NewGridCoordinator(plan, dist.Options{
				Lease: 30 * time.Second, Now: time.Now, Seed: int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			base := "http://" + ln.Addr().String()
			ctx := context.Background()
			served := make(chan error, 1)
			go func() { served <- g.Serve(ctx, ln) }()
			workers := make(chan error, 2)
			for w := 0; w < 2; w++ {
				go func(seed int64) {
					workers <- dist.RunWorker(ctx, base, dist.WorkerOptions{Seed: seed})
				}(int64(i*2 + w + 1))
			}
			if err := <-served; err != nil {
				b.Fatal(err)
			}
			for w := 0; w < 2; w++ {
				if err := <-workers; err != nil {
					b.Fatal(err)
				}
			}
			if _, err := g.Manifest(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMigdIngest measures the live daemon's hot path: a client's
// pre-framed b1 batches through frame decode + validation + segment
// observe (the work POST /v1/ingest/batch does per request, minus HTTP),
// the same trace as 100-record batches through a real listener to the
// ack (what the "minus HTTP" leaves out), the journal-merge fold behind
// GET /v1/report over the resulting segments, and a checkpoint encoded
// and restored into a fresh daemon. Sustained records/sec and
// allocations per record ride along as b.ReportMetric metrics.
func BenchmarkMigdIngest(b *testing.B) {
	p, _ := fixture(b)
	recs := p.Records
	const batchLen = 1000
	var frames [][]byte
	for i := 0; i < len(recs); i += batchLen {
		j := i + batchLen
		if j > len(recs) {
			j = len(recs)
		}
		var buf bytes.Buffer
		if err := trace.WriteAllFormat(&buf, recs[i:j], trace.FormatBinary); err != nil {
			b.Fatal(err)
		}
		frames = append(frames, dist.EncodeFrame(buf.Bytes()))
	}
	now := func() time.Time {
		return p.Workload.Config.Start.AddDate(0, 0, p.Workload.Config.Days)
	}
	newServer := func() *serve.Server {
		s, err := serve.NewServer(serve.Config{
			Opts: core.Options{DedupWindow: workload.DedupWindow},
			Now:  now,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("ingest", func(b *testing.B) {
		b.ReportAllocs()
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := newServer()
			for _, f := range frames {
				batch, err := serve.DecodeIngestFrame(f)
				if err != nil {
					b.Fatal(err)
				}
				s.Ingest(batch)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		total := float64(b.N) * float64(len(recs))
		b.ReportMetric(total/b.Elapsed().Seconds(), "recs/s")
		b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/total, "allocs/rec")
	})
	// One closed-loop client, keep-alive, 100-record batches: a batch
	// forwarder's view of the daemon, HTTP included.
	b.Run("http", func(b *testing.B) {
		var small [][]byte
		for i := 0; i < len(recs); i += 100 {
			var buf bytes.Buffer
			if err := trace.WriteAllFormat(&buf, recs[i:min(i+100, len(recs))], trace.FormatBinary); err != nil {
				b.Fatal(err)
			}
			small = append(small, dist.EncodeFrame(buf.Bytes()))
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			hs := httptest.NewServer(newServer())
			b.StartTimer()
			for _, f := range small {
				resp, err := hs.Client().Post(hs.URL+"/v1/ingest/batch", "application/octet-stream", bytes.NewReader(f))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("POST /v1/ingest/batch: status %d, err %v", resp.StatusCode, err)
				}
			}
			b.StopTimer()
			hs.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(b.N)*float64(len(recs))/b.Elapsed().Seconds(), "recs/s")
		b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*len(small)), "us/batch")
	})
	// The fold is the daemon's own contribution to GET /v1/report —
	// rendering the folded state costs the same as offline (its
	// Periodogram is measured by BenchmarkPeriodicityDetection).
	b.Run("fold", func(b *testing.B) {
		s := newServer()
		for _, f := range frames {
			batch, err := serve.DecodeIngestFrame(f)
			if err != nil {
				b.Fatal(err)
			}
			s.Ingest(batch)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := s.Accumulate()
			if err != nil {
				b.Fatal(err)
			}
			if m.Report().Table3.GrandTotal == 0 {
				b.Fatal("empty report")
			}
		}
	})
	// A restart: the checkpoint as EncodeCheckpoint serializes it, every
	// segment encoded, decoded frame by frame into a fresh daemon.
	b.Run("restore", func(b *testing.B) {
		s := newServer()
		for _, f := range frames {
			batch, err := serve.DecodeIngestFrame(f)
			if err != nil {
				b.Fatal(err)
			}
			s.Ingest(batch)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ckpt, err := s.EncodeCheckpoint()
			if err != nil {
				b.Fatal(err)
			}
			if err := newServer().RestoreCheckpoint(ckpt); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(ckpt)))
		}
	})
	// A steady checkpoint: the records held as about 3 930 segments, as
	// many as migd-live's out-of-order batches leave, and one batch
	// extending one of them between checkpoints. The checkpoint writes
	// that segment's stripe entry and the generation record, fsynced,
	// and leaves every other entry alone.
	b.Run("checkpoint-steady", func(b *testing.B) {
		const segments = 3930
		s, err := serve.NewServer(serve.Config{
			Opts:           core.Options{DedupWindow: workload.DedupWindow},
			CheckpointPath: filepath.Join(b.TempDir(), "migd.ckpt"),
			Now:            now,
		})
		if err != nil {
			b.Fatal(err)
		}
		per := (len(recs) + segments - 1) / segments
		for i := len(recs); i > 0; i -= per { // newest first: every batch opens a segment
			s.Ingest(recs[max(0, i-per):i])
		}
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		tail := append([]trace.Record(nil), recs[len(recs)-per:]...)
		for i := range tail {
			tail[i].Start = recs[len(recs)-1].Start // extends the newest segment
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s.Ingest(tail)
			b.StartTimer()
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.StatsNow().Segments), "segments")
	})
}
