package filemig

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/device"
	"filemig/internal/migration"
	"filemig/internal/serve"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// coalesceOpts is the analysis every path below runs: the paper's
// eight-hour window, which is also the coalescing window.
var coalesceOpts = core.Options{DedupWindow: DedupWindow}

// coalesceTrace is a hand-built trace at the edges of §6's rule:
// same-instant references of both ops, error references (which must
// neither count nor advance a file's last request), and gaps of exactly
// the window (savable), one nanosecond over it, and one second over it
// (neither savable), spread over days so one-day shards cut it.
func coalesceTrace() []trace.Record {
	base := time.Date(1991, 3, 4, 0, 0, 0, 0, time.UTC)
	w := DedupWindow
	var recs []trace.Record
	add := func(at time.Duration, op trace.Op, path string, size units.Bytes, err trace.ErrCode) {
		recs = append(recs, trace.Record{Start: base.Add(at), Op: op, Device: device.ClassDisk, Err: err,
			Size: size, MSSPath: path, LocalPath: "/tmp/x", UserID: 7})
	}
	add(0, trace.Read, "/mss/a", 100, trace.ErrNone)
	add(0, trace.Write, "/mss/a", 200, trace.ErrNone) // tie, other op: savable
	add(0, trace.Read, "/mss/b", 0, trace.ErrNoFile)  // error before b's first good reference
	add(time.Hour, trace.Read, "/mss/b", 50, trace.ErrNone)
	add(time.Hour, trace.Read, "/mss/c", 10, trace.ErrNone)
	add(time.Hour, trace.Read, "/mss/c", 20, trace.ErrNone)      // tie, same op: savable, deduplicated
	add(w, trace.Read, "/mss/a", 300, trace.ErrNone)             // exactly the window: savable
	add(w, trace.Read, "/mss/b", 0, trace.ErrMedia)              // must not move b's last request
	add(w+time.Hour+1, trace.Write, "/mss/b", 60, trace.ErrNone) // window + 1 ns: not savable
	add(2*w, trace.Read, "/mss/c", 30, trace.ErrNone)
	add(2*w+1, trace.Write, "/mss/a", 400, trace.ErrNone) // window + 1 ns
	add(3*w+1, trace.Read, "/mss/a", 500, trace.ErrNone)  // exactly the window
	day := 24 * time.Hour
	add(3*day, trace.Write, "/mss/d", 70, trace.ErrNone)
	add(3*day+w+time.Second, trace.Read, "/mss/d", 80, trace.ErrNone) // window + 1 s
	add(4*day+w+time.Second, trace.Read, "/mss/d", 90, trace.ErrNone) // a day later
	add(5*day, trace.Read, "/mss/d", 95, trace.ErrNone)
	add(5*day+w, trace.Write, "/mss/d", 96, trace.ErrNone) // exactly the window
	add(5*day+w, trace.Read, "/mss/e", 1, trace.ErrNone)
	add(9*day, trace.Read, "/mss/a", 600, trace.ErrTerminated)
	return recs
}

// refCoalesce is the record-level reference every path is held to:
// migration.Coalesce over the records, in Report.Coalesce's shape.
func refCoalesce(recs []trace.Record) core.Coalesce {
	r := migration.NewCoalescer().Run(recs, DedupWindow)
	return core.Coalesce{Window: r.Window, Requests: r.Requests, Savable: r.Savable, BytesSaved: r.BytesSaved}
}

// coalesceByPath runs recs through every analysis path that keeps no
// record — slice Add, AccumulateStream, an s1 snapshot merge of three
// slices and a migd Server fed shuffled batches — and returns each
// path's Report.Coalesce.
func coalesceByPath(t *testing.T, recs []trace.Record) map[string]core.Coalesce {
	t.Helper()
	ctx := context.Background()
	got := map[string]core.Coalesce{}

	a := core.New(coalesceOpts)
	a.AddAll(recs)
	got["slice"] = a.Report().Coalesce

	a, err := core.AccumulateStream(ctx, core.StreamOptions{Options: coalesceOpts}, trace.SliceStream(recs))
	if err != nil {
		t.Fatalf("AccumulateStream: %v", err)
	}
	got["stream"] = a.Report().Coalesce

	var snaps []io.Reader
	for _, part := range [][]trace.Record{recs[:len(recs)/3], recs[len(recs)/3 : 2*len(recs)/3], recs[2*len(recs)/3:]} {
		opts := coalesceOpts
		opts.Journal = true
		a, err := core.AccumulateStream(ctx, core.StreamOptions{Options: opts}, trace.SliceStream(part))
		if err != nil {
			t.Fatalf("AccumulateStream (snapshot slice): %v", err)
		}
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
		snaps = append(snaps, &buf)
	}
	if a, err = core.MergeSnapshots(snaps...); err != nil {
		t.Fatalf("MergeSnapshots: %v", err)
	}
	got["snapshot-merge"] = a.Report().Coalesce

	end := recs[len(recs)-1].Start.Add(time.Hour)
	s, err := serve.NewServer(serve.Config{Opts: coalesceOpts, Now: func() time.Time { return end }})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	batches := timeBatches(recs, 6*time.Hour)
	rand.New(rand.NewSource(45)).Shuffle(len(batches), func(i, j int) {
		batches[i], batches[j] = batches[j], batches[i]
	})
	for _, b := range batches {
		s.Ingest(b)
	}
	if a, err = s.Accumulate(); err != nil {
		t.Fatalf("Server.Accumulate: %v", err)
	}
	got["migd"] = a.Report().Coalesce
	return got
}

// timeBatches cuts records into contiguous runs of about width, never
// splitting records of one instant — the batches a daemon's clients post.
func timeBatches(recs []trace.Record, width time.Duration) [][]trace.Record {
	var out [][]trace.Record
	for i := 0; i < len(recs); {
		cut := recs[i].Start.Add(width)
		j := i + 1
		for j < len(recs) && (recs[j].Start.Before(cut) || recs[j].Start.Equal(recs[j-1].Start)) {
			j++
		}
		out = append(out, recs[i:j])
		i = j
	}
	return out
}

// coalesceB2 encodes recs as a b2 trace of perBlock-record blocks and
// returns the records as the codec decodes them (whole seconds) and
// the index path's Report.Coalesce at each worker count and shard width:
// AccumulateStream over the b2 stream OpenStream returns.
func coalesceB2(t *testing.T, recs []trace.Record, perBlock int) ([]trace.Record, map[string]core.Coalesce) {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewB2WriterEpochBlock(&buf, recs[0].Start, perBlock)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("b2 record %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	decoded, err := trace.ReadAll(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("decoding b2: %v", err)
	}
	got := map[string]core.Coalesce{}
	for _, workers := range []int{1, 4} {
		for _, days := range []int{1, 28} {
			src, err := trace.OpenStream(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			a, err := core.AccumulateStream(context.Background(), core.StreamOptions{
				Options: coalesceOpts, Workers: workers, ShardDuration: time.Duration(days) * 24 * time.Hour}, src)
			if err != nil {
				t.Fatalf("b2 index path w%d %dd: %v", workers, days, err)
			}
			got[fmt.Sprintf("b2-w%d-%dd", workers, days)] = a.Report().Coalesce
		}
	}
	return decoded, got
}

// TestCoalesceEveryPathMatchesReference holds §6's count, which every
// analysis path computes inside its per-file transition, to the
// record-level migration.Coalesce on the pipeline fixture and on a
// trace built at the rule's edges. The b2 paths are held to the
// reference over the records as b2 decodes them.
func TestCoalesceEveryPathMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recs     []trace.Record
		perBlock int
	}{
		{"pipeline", pipeline(t).Records, 512},
		{"edges", coalesceTrace(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := refCoalesce(tc.recs)
			if want.Savable == 0 || want.Savable == want.Requests {
				t.Fatalf("reference %+v exercises nothing", want)
			}
			for path, got := range coalesceByPath(t, tc.recs) {
				if got != want {
					t.Errorf("%s: Report.Coalesce = %+v, want %+v", path, got, want)
				}
			}
			decoded, b2 := coalesceB2(t, tc.recs, tc.perBlock)
			wantB2 := refCoalesce(decoded)
			for path, got := range b2 {
				if got != wantB2 {
					t.Errorf("%s: Report.Coalesce = %+v, want %+v", path, got, wantB2)
				}
			}
		})
	}
}

// TestCoalesceEdgesCounted pins the hand-built trace's count, so the
// reference itself cannot drift: of 16 good requests, the tie of both
// ops, the same-op tie, and the three references exactly one window
// after their file's previous one are savable.
func TestCoalesceEdgesCounted(t *testing.T) {
	want := core.Coalesce{Window: DedupWindow, Requests: 16, Savable: 5, BytesSaved: 200 + 20 + 300 + 500 + 96}
	if got := refCoalesce(coalesceTrace()); got != want {
		t.Fatalf("reference over the edge trace = %+v, want %+v", got, want)
	}
}

// TestCoalesceNearOneThirdStreamed is TestCoalesceNearOneThird's §6
// claim on a streamed pipeline, which keeps no record.
func TestCoalesceNearOneThirdStreamed(t *testing.T) {
	rep, err := RunStream(Config{Scale: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	frac := (&Pipeline{Report: rep}).Coalesce().SavableFraction()
	if frac < 0.22 || frac > 0.45 {
		t.Errorf("streamed savable fraction = %.3f, want ~1/3", frac)
	}
}
