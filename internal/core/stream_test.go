package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"filemig/internal/trace"
	"filemig/internal/workload"
)

// renderAll concatenates every rendered table and figure the analysis
// produces, so a single string comparison covers the whole Report.
func renderAll(r *Report) string {
	return RenderReport(r) + fmt.Sprintf("days=%d autocorr=%v\n", r.Days, r.ReadAutocorrelation(48)[:2])
}

func streamFixture(t *testing.T) *workload.Result {
	t.Helper()
	cfg := workload.DefaultConfig(0.004, 77)
	cfg.Days = 180
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("workload.Generate: %v", err)
	}
	if len(res.Records) < 2000 {
		t.Fatalf("fixture too small: %d records", len(res.Records))
	}
	return res
}

// TestStreamEquivalence is the acceptance test for the streaming path:
// for a generated trace, AnalyzeStream must produce byte-identical
// rendered tables and figures to the slice path, whatever worker count
// and shard width its options carry — StreamOptions documents both as
// read by the b2 paths only, and callers (the benchmark harness) pass
// them here.
func TestStreamEquivalence(t *testing.T) {
	res := streamFixture(t)
	opts := Options{Start: res.Config.Start, Days: res.Config.Days, Tree: res.Tree}

	slice := New(opts)
	slice.AddAll(res.Records)
	want := renderAll(slice.Report())

	for _, tc := range []struct {
		workers int
		shard   time.Duration
	}{
		{1, DefaultShardDuration},
		{1, 24 * time.Hour},
		{4, DefaultShardDuration},
		{4, 7 * 24 * time.Hour},
		{4, 3 * time.Hour},
		{16, 13 * 24 * time.Hour},
	} {
		t.Run(fmt.Sprintf("workers=%d/shard=%v", tc.workers, tc.shard), func(t *testing.T) {
			rep, err := AnalyzeStream(context.Background(), StreamOptions{
				Options:       opts,
				ShardDuration: tc.shard,
				Workers:       tc.workers,
			}, trace.SliceStream(res.Records))
			if err != nil {
				t.Fatalf("AnalyzeStream: %v", err)
			}
			got := renderAll(rep)
			if got != want {
				t.Fatalf("stream analysis diverged from slice path:\n%s",
					firstDiff(want, got))
			}
		})
	}
}

// TestStreamEquivalenceNoTreeNoStart exercises the auto-derived origin
// (Options.Start zero) and the trace-derived directory statistics
// (Options.Tree nil), which follow different code paths.
func TestStreamEquivalenceNoTreeNoStart(t *testing.T) {
	res := streamFixture(t)
	slice := New(Options{})
	slice.AddAll(res.Records)
	want := renderAll(slice.Report())

	rep, err := AnalyzeStream(context.Background(), StreamOptions{}, trace.SliceStream(res.Records))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(rep); got != want {
		t.Fatalf("stream analysis diverged from slice path:\n%s", firstDiff(want, got))
	}
}

// TestStreamEquivalenceThroughCodec runs the stream path straight off an
// encoded trace — the mssanalyze -stream scenario — and compares it with
// decoding everything first.
func TestStreamEquivalenceThroughCodec(t *testing.T) {
	res := streamFixture(t)
	for _, f := range []trace.Format{trace.FormatASCII, trace.FormatBinary} {
		var enc pipeBuffer
		if err := trace.WriteAllFormat(&enc, res.Records, f); err != nil {
			t.Fatal(err)
		}
		recs, err := trace.ReadAll(newPipeReader(&enc))
		if err != nil {
			t.Fatal(err)
		}
		slice := New(Options{})
		slice.AddAll(recs)
		want := renderAll(slice.Report())

		src, err := trace.OpenStream(newPipeReader(&enc))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeStream(context.Background(), StreamOptions{}, src)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderAll(rep); got != want {
			t.Fatalf("%v: codec stream diverged:\n%s", f, firstDiff(want, got))
		}
	}
}

// pipeBuffer is a minimal append-only buffer we can re-read many times.
type pipeBuffer struct{ b []byte }

func (p *pipeBuffer) Write(b []byte) (int, error) {
	p.b = append(p.b, b...)
	return len(b), nil
}

type pipeReader struct {
	b []byte
	i int
}

func newPipeReader(p *pipeBuffer) io.Reader { return &pipeReader{b: p.b} }

func (r *pipeReader) Read(b []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(b, r.b[r.i:])
	r.i += n
	return n, nil
}

func TestStreamEmptyAndErrors(t *testing.T) {
	rep, err := AnalyzeStream(context.Background(), StreamOptions{}, trace.SliceStream(nil))
	if err != nil {
		t.Fatalf("empty stream: %v", err)
	}
	if rep.Table3.GrandTotal != 0 {
		t.Fatalf("empty stream produced %d records", rep.Table3.GrandTotal)
	}

	// A record earlier than its predecessor, wherever it sits, is refused
	// with both instants named.
	res := streamFixture(t)
	const n = 100
	for _, at := range []int{1, n / 2, n - 1} {
		recs := append([]trace.Record(nil), res.Records[:n]...)
		recs[at].Start = recs[at-1].Start.Add(-time.Second)
		_, err := AnalyzeStream(context.Background(), StreamOptions{}, trace.SliceStream(recs))
		want := fmt.Sprintf("core: stream out of order: %v after %v", recs[at].Start, recs[at-1].Start)
		if err == nil || err.Error() != want {
			t.Fatalf("out of order at record %d: err = %v, want %q", at, err, want)
		}
	}

	// A source error comes back as it is, and nothing after it is read.
	boom := errors.New("boom")
	src := &hookStream{recs: res.Records[:n], before: func(i int) error {
		if i >= n/2 {
			return boom
		}
		return nil
	}}
	if _, err := AnalyzeStream(context.Background(), StreamOptions{}, src); err != boom {
		t.Fatalf("source error: err = %v, want %v verbatim", err, boom)
	}
	if src.pulled != n/2+1 {
		t.Fatalf("pulled %d times around an error after %d records, want %d", src.pulled, n/2, n/2+1)
	}
}

// hookStream yields recs, counting Next calls; before runs ahead of
// record i and may fail the call.
type hookStream struct {
	recs   []trace.Record
	pulled int
	before func(i int) error
}

func (s *hookStream) Next() (trace.Record, error) {
	i := s.pulled
	s.pulled++
	if err := s.before(i); err != nil {
		return trace.Record{}, err
	}
	if i >= len(s.recs) {
		return trace.Record{}, io.EOF
	}
	return s.recs[i], nil
}

// TestAccumulateStreamCancel cancels the context from inside the stream
// after record k: the loop stops with ctx's error within one check
// interval, without draining the source.
func TestAccumulateStreamCancel(t *testing.T) {
	res := streamFixture(t)
	const k = 1000
	if len(res.Records) < k+2*ctxCheckEvery {
		t.Fatalf("fixture has only %d records", len(res.Records))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &hookStream{recs: res.Records, before: func(i int) error {
		if i == k {
			cancel() // records 0..k-1 are out
		}
		return nil
	}}
	_, err := AccumulateStream(ctx, StreamOptions{}, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if src.pulled <= k || src.pulled > k+ctxCheckEvery {
		t.Fatalf("pulled %d records around a cancel after %d, want at most %d", src.pulled, k, k+ctxCheckEvery)
	}
}

// TestAccumulateStreamAllocatesLikeSlice pins that the stream path holds
// no record and no journal: over an in-memory trace it allocates what the
// slice path allocates, not a copy of every shard and a journal entry per
// record on top.
func TestAccumulateStreamAllocatesLikeSlice(t *testing.T) {
	res := streamFixture(t)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	slice := allocated(func() {
		a := New(Options{})
		a.AddAll(res.Records)
	})
	stream := allocated(func() {
		if _, err := AccumulateStream(context.Background(), StreamOptions{}, trace.SliceStream(res.Records)); err != nil {
			t.Fatal(err)
		}
	})
	if float64(stream) > 1.05*float64(slice) {
		t.Fatalf("AccumulateStream allocated %d bytes, slice path %d: more than 1.05x", stream, slice)
	}
}

// TestStreamReportFieldsMatch compares the raw (pre-render) periodicity
// series, which the renderers only summarise.
func TestStreamReportFieldsMatch(t *testing.T) {
	res := streamFixture(t)
	slice := New(Options{Start: res.Config.Start})
	slice.AddAll(res.Records)
	want := slice.Report()

	rep, err := AnalyzeStream(context.Background(), StreamOptions{
		Options: Options{Start: res.Config.Start},
	}, trace.SliceStream(res.Records))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.HourlyRequests, want.HourlyRequests) {
		t.Fatal("HourlyRequests series diverged")
	}
	if !reflect.DeepEqual(rep.HourlyReads, want.HourlyReads) {
		t.Fatal("HourlyReads series diverged")
	}
	if rep.Days != want.Days {
		t.Fatalf("Days = %d, want %d", rep.Days, want.Days)
	}
}

// firstDiff locates the first line where two renderings disagree.
func firstDiff(want, got string) string {
	w, g := want, got
	line := 1
	for len(w) > 0 && len(g) > 0 {
		wl, gl := cutLine(&w), cutLine(&g)
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant: %q\ngot:  %q", line, wl, gl)
		}
		line++
	}
	return fmt.Sprintf("length mismatch: want %d bytes, got %d bytes", len(want), len(got))
}

func cutLine(s *string) string {
	for i := 0; i < len(*s); i++ {
		if (*s)[i] == '\n' {
			l := (*s)[:i]
			*s = (*s)[i+1:]
			return l
		}
	}
	l := *s
	*s = ""
	return l
}
