package filemig

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"

	"filemig/internal/core"
	"filemig/internal/migration"
	"filemig/internal/mss"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// TestPipelinePersistsThroughCodec is the full §4 loop: simulate, encode
// to the compact ASCII format, decode, re-analyse — the decoded trace
// must yield the same Table 3 as the in-memory one (start times truncate
// to whole seconds, which cannot move a record across an hour boundary
// often enough to matter here, and never changes counts or sizes).
func TestPipelinePersistsThroughCodec(t *testing.T) {
	p := pipeline(t)

	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, p.Records, trace.FormatASCII); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded) != len(p.Records) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(p.Records))
	}

	a := core.New(core.Options{Start: p.Workload.Config.Start, Days: p.Workload.Config.Days})
	a.AddAll(decoded)
	rep := a.Report()

	want := p.Report.Table3
	got := rep.Table3
	if got.TotalRefs != want.TotalRefs || got.ErrorRefs != want.ErrorRefs {
		t.Errorf("reference counts changed through codec: %d/%d vs %d/%d",
			got.TotalRefs, got.ErrorRefs, want.TotalRefs, want.ErrorRefs)
	}
	if got.Total().Bytes != want.Total().Bytes {
		t.Errorf("byte totals changed through codec: %v vs %v",
			got.Total().Bytes, want.Total().Bytes)
	}
	// Latency means survive at one-second resolution.
	g := got.Total().MeanLatency.Round(time.Second)
	w := want.Total().MeanLatency.Round(time.Second)
	if d := g - w; d < -time.Second || d > time.Second {
		t.Errorf("mean latency moved %v through the codec", d)
	}
}

// TestRawLogPipeline exercises the other §4 direction: verbose system
// log → converter → analysis, as the authors' preprocessing did.
func TestRawLogPipeline(t *testing.T) {
	p := pipeline(t)
	n := len(p.Records)
	if n > 3000 {
		n = 3000
	}
	recs := p.Records[:n]
	var raw bytes.Buffer
	if err := trace.WriteRawLog(&raw, recs); err != nil {
		t.Fatal(err)
	}
	converted, skipped, err := trace.ConvertRawLog(&raw)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("converter skipped %d lines", skipped)
	}
	if len(converted) != n {
		t.Fatalf("converted %d records, want %d", len(converted), n)
	}
	var okWant, okGot int
	for i := range recs {
		if recs[i].OK() {
			okWant++
		}
		if converted[i].OK() {
			okGot++
		}
	}
	if okGot != okWant {
		t.Errorf("error classification changed: %d vs %d OK records", okGot, okWant)
	}
}

// TestCoalesceMonotonicWindows is a property test over the real trace:
// widening the window can only save more.
func TestCoalesceMonotonicWindows(t *testing.T) {
	p := pipeline(t)
	recs := p.Records
	if len(recs) > 8000 {
		recs = recs[:8000]
	}
	f := func(h1, h2 uint8) bool {
		a := time.Duration(h1%25) * time.Hour
		b := time.Duration(h2%25) * time.Hour
		if a > b {
			a, b = b, a
		}
		return migration.NewCoalescer().Run(recs, a).Savable <= migration.NewCoalescer().Run(recs, b).Savable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCutThroughOnRealTrace checks §5.1.1's premise end to end: with an
// application consuming slower than the MSS delivers, cut-through always
// helps and never hurts.
func TestCutThroughOnRealTrace(t *testing.T) {
	p := pipeline(t)
	for _, rate := range []float64{0.5e6, 1e6, 4e6} {
		res := mss.CutThroughReport(p.Records, rate)
		if res.CutThroughMean > res.BaselineMean {
			t.Errorf("rate %v: cut-through (%v) worse than baseline (%v)",
				rate, res.CutThroughMean, res.BaselineMean)
		}
		if res.Speedup() < 1 {
			t.Errorf("rate %v: speedup %v < 1", rate, res.Speedup())
		}
	}
}

// countingStream counts the records pulled from it.
type countingStream struct {
	src    trace.Stream
	pulled int
}

func (c *countingStream) Next() (trace.Record, error) {
	r, err := c.src.Next()
	if err == nil {
		c.pulled++
	}
	return r, err
}

// TestReplayStreamHoldsOnlyInFlight is what makes "tracegen -sim no
// longer materializes the trace" a checked claim: between generator and
// encoder the simulator never holds more than 1% of a scale-0.02 trace
// (measured: 17 of 58 264 records, the one being returned included),
// and what it yields is the slice replay's output record for record.
func TestReplayStreamHoldsOnlyInFlight(t *testing.T) {
	scale := 0.02
	if testing.Short() {
		scale = 0.005
	}
	cfg := workload.DefaultConfig(scale, 1993)
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mss.NewSimulator(mss.DefaultConfig(1993)).Replay(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := workload.GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingStream{src: sr.Stream}
	st := mss.NewSimulator(mss.DefaultConfig(1993)).ReplayStream(src)
	yielded, peak := 0, 0
	for {
		r, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// r was in flight until this call returned.
		peak = max(peak, src.pulled-yielded)
		if yielded >= len(want) || r != want[yielded] {
			t.Fatalf("record %d differs from the slice replay", yielded)
		}
		yielded++
	}
	if yielded != len(want) || yielded != sr.Planned {
		t.Fatalf("yielded %d records, slice replay %d, planned %d", yielded, len(want), sr.Planned)
	}
	t.Logf("peak in flight: %d of %d records", peak, yielded)
	if peak*100 > yielded {
		t.Errorf("peak in flight %d exceeds 1%% of the %d-record trace", peak, yielded)
	}
}
