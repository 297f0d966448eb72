package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"filemig/internal/trace"
)

// observeShared runs records through a journal-only segment over a
// shared table, interning each good record's path first — what migd's
// ingest does per validated batch.
func observeShared(opts Options, paths *trace.Interner, recs []trace.Record) *Partial {
	p := NewSegment(opts, paths)
	for i := range recs {
		r := &recs[i]
		id := trace.NoFileID
		if r.OK() {
			id = paths.Intern(r.MSSPath)
		}
		p.Observe(r, id)
	}
	return p
}

// TestSegmentCodecMatchesPrivateTable pins what lets a daemon keep one
// path table for all its segments: a journal-only segment over a shared
// table — whose IDs are in another order entirely — serializes to the
// very bytes the slice path writes for the same records over its own
// first-seen table, decodes back (into yet another table) to a segment
// that re-serializes identically, and a set of such segments, handed
// over in any order, folds to the slice path's report.
func TestSegmentCodecMatchesPrivateTable(t *testing.T) {
	res := streamFixture(t)
	recs := res.Records[:6000]
	slices := splitWidth(recs, 36*time.Hour)

	// A shared table that has already numbered every path in reverse
	// trace order, as unlike a slice's own numbering as can be.
	shared := trace.NewInterner()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].OK() {
			shared.Intern(recs[i].MSSPath)
		}
	}
	codec := NewSegmentCodec(&trace.SharedTable{Interner: shared})
	decoder := NewSegmentCodec(trace.NewSharedTable())

	var segs, decoded, private []*Partial
	for i, sl := range slices {
		private = append(private, AccumulatePartial(Options{}, sl))
		want := saveSlice(t, Options{}, sl)
		p := observeShared(Options{}, shared, sl)
		var got bytes.Buffer
		if err := codec.Write(&got, p, shared.Paths()); err != nil {
			t.Fatalf("slice %d: Write: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("slice %d: shared-table snapshot differs from the private-table one (%d vs %d bytes)", i, got.Len(), len(want))
		}
		first, last := p.Bounds()
		d, dpaths, err := decoder.Decode(want, first, last)
		if err == nil {
			err = decoder.Bind(d, dpaths)
		}
		if err != nil {
			t.Fatalf("slice %d: Decode: %v", i, err)
		}
		got.Reset()
		if err := decoder.Write(&got, d, decoder.table.Paths()); err != nil {
			t.Fatalf("slice %d: re-Write: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("slice %d: decoded segment re-serializes differently", i)
		}
		if d.Records() != p.Records() || d.Errors() != p.Errors() {
			t.Fatalf("slice %d: decoded counts %d/%d, want %d/%d", i, d.Records(), d.Errors(), p.Records(), p.Errors())
		}
		segs, decoded = append(segs, p), append(decoded, d)
	}
	if len(segs) < 4 {
		t.Fatalf("fixture cut into only %d slices", len(segs))
	}

	slice := New(Options{})
	slice.AddAll(recs)
	want := renderAll(slice.Report())
	for name, ps := range map[string][]*Partial{"live": segs, "decoded": decoded, "private": private} {
		// Reversed: FoldPartials owes nothing to the order it is handed.
		rev := make([]*Partial, len(ps))
		for i, p := range ps {
			rev[len(ps)-1-i] = p
		}
		m := New(Options{})
		if err := m.FoldPartials(rev); err != nil {
			t.Fatalf("%s: FoldPartials: %v", name, err)
		}
		if got := renderAll(m.Report()); got != want {
			t.Fatalf("%s: segments fold to a different report", name)
		}
	}

	if err := NewSegmentCodec(trace.NewSharedTable()).Write(&bytes.Buffer{}, segs[0], shared.Paths()); err == nil {
		t.Fatal("a codec wrote a segment that indexes another table")
	}
}

// TestSegmentDecodeRejects covers the byte-window decode's own edges:
// every truncation fails (with no spill sized from a length prefix the
// window cannot back), a path table that names one path twice is
// refused — a replay of it used to index past the interned table — and
// so is a journal without a start instant, which only the replay used
// to catch.
func TestSegmentDecodeRejects(t *testing.T) {
	res := streamFixture(t)
	small := saveSlice(t, Options{}, res.Records[:40])
	decode := func(b []byte) error {
		c := NewSegmentCodec(trace.NewSharedTable())
		p, paths, err := c.Decode(b, time.Time{}, time.Time{})
		if err == nil {
			err = c.Bind(p, paths)
		}
		return err
	}
	if err := decode(small); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	for cut := 0; cut < len(small); cut++ {
		if err := decode(small[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded cleanly", cut, len(small))
		}
	}

	// The hand-written seed trace names two good paths of equal length,
	// /mss/u1/a and /mss/u2/b: overwrite the second with the first in
	// the table.
	seed := saveSlice(t, Options{}, fuzzSeedRecords())
	dup := bytes.Replace(seed, []byte("/mss/u2/b"), []byte("/mss/u1/a"), 1)
	if bytes.Equal(dup, seed) {
		t.Fatal("seed snapshot does not hold /mss/u2/b")
	}
	for name, err := range map[string]error{
		"Decode":         decode(dup),
		"MergeSnapshots": func() error { _, err := MergeSnapshots(bytes.NewReader(dup)); return err }(),
	} {
		if err == nil || !strings.Contains(err.Error(), "repeats") {
			t.Errorf("%s of a path table with a repeated path: err = %v", name, err)
		}
	}

	// Clear snapHasStart and cut the start varint it announced.
	flags := len(trace.SnapshotHeader) + 1
	n := 1
	for small[flags+n]&0x80 != 0 {
		n++
	}
	noStart := append(append([]byte(nil), small[:flags]...), 0)
	noStart = append(noStart, small[flags+1+n:]...)
	if err := decode(noStart); err == nil || !strings.Contains(err.Error(), "no start instant") {
		t.Errorf("journal without a start instant: err = %v", err)
	}
}
