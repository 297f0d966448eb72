package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/trace"
)

// saveSlice analyses one record slice with the journal enabled and
// returns its s1 snapshot bytes — the "map" side of a distributed run.
func saveSlice(t *testing.T, opts Options, recs []trace.Record) []byte {
	t.Helper()
	opts.Journal = true
	a := New(opts)
	a.AddAll(recs)
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// mergeSnapshots runs the "reduce" side over encoded snapshots.
func mergeSnapshots(t *testing.T, snaps [][]byte) *Analysis {
	t.Helper()
	rs := make([]io.Reader, len(snaps))
	for i, s := range snaps {
		rs[i] = bytes.NewReader(s)
	}
	m, err := MergeSnapshots(rs...)
	if err != nil {
		t.Fatalf("MergeSnapshots: %v", err)
	}
	return m
}

// splitN cuts records into n contiguous slices of near-equal length.
func splitN(recs []trace.Record, n int) [][]trace.Record {
	out := make([][]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(recs)/n, (i+1)*len(recs)/n
		out = append(out, recs[lo:hi])
	}
	return out
}

// splitWidth cuts records at time boundaries of the given width — the
// distributed analogue of AnalyzeStream's shard cutting.
func splitWidth(recs []trace.Record, width time.Duration) [][]trace.Record {
	if len(recs) == 0 {
		return nil
	}
	origin := recs[0].Start
	var out [][]trace.Record
	lo := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Sub(origin)/width != recs[lo].Start.Sub(origin)/width {
			out = append(out, recs[lo:i])
			lo = i
		}
	}
	return append(out, recs[lo:])
}

// TestSnapshotEquivalence is the acceptance test for the s1 codec: a
// trace split N ways, each slice analysed independently and saved, then
// loaded and merged, must render the paper's full report byte-identical
// to the single-process slice path — for N ∈ {1, 2, 8} and for time
// slices far narrower than the eight-hour dedup window.
func TestSnapshotEquivalence(t *testing.T) {
	res := streamFixture(t)
	for _, withStart := range []bool{true, false} {
		opts := Options{}
		if withStart {
			opts.Start = res.Config.Start
		}
		slice := New(opts)
		slice.AddAll(res.Records)
		want := renderAll(slice.Report())

		splits := map[string][][]trace.Record{
			"N=1": splitN(res.Records, 1),
			"N=2": splitN(res.Records, 2),
			"N=8": splitN(res.Records, 8),
		}
		if !withStart {
			// Far narrower than the 8 h dedup window, so nearly every
			// file's dedup chain crosses snapshot boundaries.
			splits["width=3h"] = splitWidth(res.Records, 3*time.Hour)
		}
		for name, slices := range splits {
			t.Run(fmt.Sprintf("start=%v/%s", withStart, name), func(t *testing.T) {
				snaps := make([][]byte, len(slices))
				for i, s := range slices {
					snaps[i] = saveSlice(t, opts, s)
				}
				m := mergeSnapshots(t, snaps)
				if got := renderAll(m.Report()); got != want {
					t.Fatalf("merged snapshots diverged from slice path:\n%s", firstDiff(want, got))
				}
			})
		}
	}
}

// TestSnapshotMergeErrorOnlyLeader pins the calendar anchor of a merge
// whose first snapshot holds one error record and nothing else: the s1
// format keeps no error-record times and that snapshot has no journal,
// so only its start instant can anchor the merged calendar — 50 hours
// (three calendar days) before the next snapshot would — exactly as the
// error record anchors a single-process run over the same records.
func TestSnapshotMergeErrorOnlyLeader(t *testing.T) {
	res := streamFixture(t)
	rest := res.Records[:4000]
	leader := trace.Record{Start: rest[0].Start.Add(-50 * time.Hour), Op: trace.Read,
		Device: device.ClassDisk, Err: trace.ErrNoFile, MSSPath: "/mss/gone", LocalPath: "/tmp/gone", UserID: 1}
	all := append([]trace.Record{leader}, rest...)
	halves := splitN(rest, 2)
	for _, start := range []time.Time{{}, res.Config.Start} {
		t.Run(fmt.Sprintf("start=%v", !start.IsZero()), func(t *testing.T) {
			opts := Options{Start: start}
			slice := New(opts)
			slice.AddAll(all)
			want := renderAll(slice.Report())
			m := mergeSnapshots(t, [][]byte{
				saveSlice(t, opts, all[:1]), saveSlice(t, opts, halves[0]), saveSlice(t, opts, halves[1]),
			})
			if got := renderAll(m.Report()); got != want {
				t.Fatalf("merge led by an error-only snapshot diverged from the slice path:\n%s", firstDiff(want, got))
			}
		})
	}
}

// TestSnapshotStreamSaveIdentical proves the two producers agree: an
// AccumulateStream accumulator with the journal on saves
// byte-identical snapshot bytes to a slice-path analysis of the same
// records — so distributed workers can use whichever path fits their
// memory budget.
func TestSnapshotStreamSaveIdentical(t *testing.T) {
	res := streamFixture(t)
	want := saveSlice(t, Options{}, res.Records)

	a, err := AccumulateStream(context.Background(), StreamOptions{
		Options: Options{Journal: true},
	}, trace.SliceStream(res.Records))
	if err != nil {
		t.Fatalf("AccumulateStream: %v", err)
	}
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("stream-path snapshot differs from slice-path snapshot (%d vs %d bytes)",
			buf.Len(), len(want))
	}
}

// TestSnapshotRoundTripStable checks the fuzz target's core property on
// real data: save → load → save is byte-stable, including for a merged
// analysis re-saved as a new snapshot (merge trees compose).
func TestSnapshotRoundTripStable(t *testing.T) {
	res := streamFixture(t)
	enc := saveSlice(t, Options{}, res.Records)

	a, err := MergeSnapshots(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("MergeSnapshots: %v", err)
	}
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Fatal("save → load → save is not byte-stable")
	}

	// A merged pair re-saves to exactly the single-slice snapshot.
	halves := splitN(res.Records, 2)
	m := mergeSnapshots(t, [][]byte{
		saveSlice(t, Options{}, halves[0]),
		saveSlice(t, Options{}, halves[1]),
	})
	buf.Reset()
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatalf("merged save: %v", err)
	}
	if !bytes.Equal(enc, buf.Bytes()) {
		t.Fatal("snapshot of a merge differs from snapshot of the whole")
	}
}

// TestSnapshotResume checks that a loaded snapshot is a live analysis:
// feeding it the rest of the trace matches analysing everything in one
// process.
func TestSnapshotResume(t *testing.T) {
	res := streamFixture(t)
	slice := New(Options{})
	slice.AddAll(res.Records)
	want := renderAll(slice.Report())

	halves := splitN(res.Records, 2)
	a, err := MergeSnapshots(bytes.NewReader(saveSlice(t, Options{}, halves[0])))
	if err != nil {
		t.Fatal(err)
	}
	a.AddAll(halves[1])
	if got := renderAll(a.Report()); got != want {
		t.Fatalf("resumed analysis diverged:\n%s", firstDiff(want, got))
	}
}

// TestSnapshotEmpty round-trips an analysis that saw no records.
func TestSnapshotEmpty(t *testing.T) {
	a := New(Options{Journal: true})
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := MergeSnapshots(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Report().Table3.GrandTotal != 0 {
		t.Fatal("empty snapshot produced records")
	}
}

// TestSnapshotWriteErrors covers the producer-side refusals.
func TestSnapshotWriteErrors(t *testing.T) {
	res := streamFixture(t)
	var buf bytes.Buffer

	a := New(Options{}) // no journal
	a.AddAll(res.Records[:100])
	if err := a.WriteSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "Journal") {
		t.Fatalf("journal-less save: err = %v", err)
	}

	withTree := New(Options{Journal: true, Tree: res.Tree})
	withTree.AddAll(res.Records[:100])
	if err := withTree.WriteSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "Tree") {
		t.Fatalf("tree save: err = %v", err)
	}
}

// TestSnapshotDecodeErrors feeds malformed and misused snapshots and
// expects errors — never panics, never silent corruption.
func TestSnapshotDecodeErrors(t *testing.T) {
	res := streamFixture(t)
	halves := splitN(res.Records[:2000], 2)
	first := saveSlice(t, Options{}, halves[0])
	second := saveSlice(t, Options{}, halves[1])

	t.Run("no input", func(t *testing.T) {
		if _, err := MergeSnapshots(); err == nil {
			t.Fatal("no error for zero snapshots")
		}
	})
	t.Run("trace not snapshot", func(t *testing.T) {
		var tr bytes.Buffer
		if err := trace.WriteAllFormat(&tr, res.Records[:50], trace.FormatBinary); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeSnapshots(bytes.NewReader(tr.Bytes())); err == nil ||
			!strings.Contains(err.Error(), "snapshot header") {
			t.Fatalf("trace input: err = %v", err)
		}
	})
	t.Run("snapshot not trace", func(t *testing.T) {
		if _, err := trace.OpenStream(bytes.NewReader(first)); err == nil ||
			!strings.Contains(err.Error(), "merge") {
			t.Fatalf("OpenStream on snapshot: err = %v", err)
		}
	})
	t.Run("out of order merge", func(t *testing.T) {
		if _, err := MergeSnapshots(bytes.NewReader(second), bytes.NewReader(first)); err == nil ||
			!strings.Contains(err.Error(), "order") {
			t.Fatalf("swapped halves: err = %v", err)
		}
	})
	t.Run("dedup window mismatch", func(t *testing.T) {
		other := saveSlice(t, Options{DedupWindow: time.Hour}, halves[1])
		if _, err := MergeSnapshots(bytes.NewReader(first), bytes.NewReader(other)); err == nil ||
			!strings.Contains(err.Error(), "dedup window") {
			t.Fatalf("window mismatch: err = %v", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte{}, first...), 0x7)
		if _, err := MergeSnapshots(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "trailing") {
			t.Fatalf("trailing byte: err = %v", err)
		}
	})
	t.Run("every truncation errors", func(t *testing.T) {
		small := saveSlice(t, Options{}, res.Records[:40])
		for cut := 0; cut < len(small); cut++ {
			if _, err := MergeSnapshots(bytes.NewReader(small[:cut])); err == nil {
				t.Fatalf("truncation at %d of %d bytes loaded cleanly", cut, len(small))
			}
		}
	})
	t.Run("single bit flips never load silently", func(t *testing.T) {
		small := saveSlice(t, Options{}, res.Records[:40])
		var enc bytes.Buffer
		flipped := 0
		for i := len(trace.SnapshotHeader) + 1; i < len(small); i++ {
			bad := append([]byte{}, small...)
			bad[i] ^= 0x40
			a, err := MergeSnapshots(bytes.NewReader(bad))
			if err != nil {
				continue
			}
			// A flip that still decodes must decode to *different* valid
			// content, never to a half-applied mix: re-saving must give
			// back exactly the mutated bytes.
			enc.Reset()
			if err := a.WriteSnapshot(&enc); err != nil {
				t.Fatalf("flip at %d: loaded but cannot re-save: %v", i, err)
			}
			flipped++
		}
		if flipped == len(small) {
			t.Fatal("no bit flip was ever detected")
		}
	})
}

// TestSnapshotSums spot-checks that the loaded analysis preserves the
// serialized (non-replayed) accumulators, not just the rendered report:
// Table 3 cells and Figure 3 CDFs come from the sums sections.
func TestSnapshotSums(t *testing.T) {
	res := streamFixture(t)
	slice := New(Options{})
	slice.AddAll(res.Records)
	want := slice.Report()

	m, err := MergeSnapshots(bytes.NewReader(saveSlice(t, Options{}, res.Records)))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Report()
	if got.Table3.GrandTotal != want.Table3.GrandTotal ||
		got.Table3.ErrorRefs != want.Table3.ErrorRefs ||
		got.Table3.TotalRefs != want.Table3.TotalRefs {
		t.Fatalf("Table 3 headline counts differ: %+v vs %+v", got.Table3, want.Table3)
	}
	for dev, wc := range want.Figure3 {
		gc := got.Figure3[dev]
		if gc == nil || gc.N() != wc.N() || gc.Median() != wc.Median() {
			t.Fatalf("Figure 3 class %v differs", dev)
		}
	}
}
