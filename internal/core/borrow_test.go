package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"filemig/internal/trace"
	"filemig/internal/workload"
)

// TestB2EquivalenceOneTable pins the index path's one table per run: at
// every worker count the shard workers intern into one shared table,
// which holds each distinct path of the file once, and the master
// borrows it — no table of its own, every path it names the table's
// own string — while its snapshot stays the slice path's, byte for
// byte.
func TestB2EquivalenceOneTable(t *testing.T) {
	res := streamFixture(t)
	enc := encodeB2Blocks(t, res.Records, 64)
	recs, err := trace.ReadAll(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for i := range recs {
		distinct[recs[i].MSSPath] = true
	}
	want := sliceSnapshot(t, recs)
	f := openB2(t, enc)
	for _, workers := range []int{1, 2, 4, 8} {
		a, err := AccumulateB2Blocks(context.Background(), StreamOptions{
			Options: Options{DedupWindow: workload.DedupWindow, Journal: true},
			Workers: workers, ShardDuration: 7 * 24 * time.Hour}, f, 0, f.NumBlocks())
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("workers=%d", workers)
		if a.interner != nil || a.borrow == nil {
			t.Fatalf("%s: the master owns a path table of its own", name)
		}
		table := a.borrow.table
		if table.Len() != len(distinct) {
			t.Fatalf("%s: the run's table holds %d paths for %d distinct ones", name, table.Len(), len(distinct))
		}
		view, order := a.pathColumn()
		for m, id := range order {
			if unsafe.StringData(view[id]) != unsafe.StringData(table.Paths()[id]) {
				t.Fatalf("%s: master file %d holds a second copy of %q", name, m, view[id])
			}
		}
		if !bytes.Equal(snapshotBytes(t, a), want) {
			t.Fatalf("%s: snapshot differs from the slice path's", name)
		}
	}
}

// TestFoldBorrowsOneTable covers the master's two columns through one
// trace cut three ways. Segments over one table, folded over several
// calls as the b2 path folds its groups, leave the master borrowing
// that table, its remap carried from call to call; a later fold of a
// segment over another table, and an Add, each move it to a table of
// its own — once — under the same IDs. Every step's snapshot is the
// slice path's over the same records.
func TestFoldBorrowsOneTable(t *testing.T) {
	res := streamFixture(t)
	recs := res.Records
	n := len(recs)
	parts := [][]trace.Record{recs[:n/4], recs[n/4 : n/2], recs[n/2 : 3*n/4]}
	opts := Options{DedupWindow: workload.DedupWindow, Journal: true}

	shared := trace.NewFileTable()
	m := New(opts)
	for i, part := range parts[:2] {
		if err := m.FoldPartials([]*Partial{observeShared(opts, shared, part)}); err != nil {
			t.Fatal(err)
		}
		if m.interner != nil || m.borrow == nil || m.borrow.table != shared {
			t.Fatalf("fold %d: the master does not borrow the segments' one table", i)
		}
		if len(m.borrow.remap) != shared.Len() {
			t.Fatalf("fold %d: the remap covers %d of the table's %d IDs", i, len(m.borrow.remap), shared.Len())
		}
	}
	if !bytes.Equal(snapshotBytes(t, m), saveSlice(t, opts, recs[:n/2])) {
		t.Fatal("borrowing master: snapshot differs from the slice path's")
	}

	// A segment over another table: the master takes a table of its own.
	if err := m.FoldPartials([]*Partial{observeShared(opts, trace.NewFileTable(), parts[2])}); err != nil {
		t.Fatal(err)
	}
	if m.interner == nil || m.borrow != nil {
		t.Fatal("a fold over a second table left the master borrowing")
	}
	if !bytes.Equal(snapshotBytes(t, m), saveSlice(t, opts, recs[:3*n/4])) {
		t.Fatal("after a second table: snapshot differs from the slice path's")
	}

	// An Add on a borrowing master does the same.
	b := New(opts)
	if err := b.FoldPartials([]*Partial{observeShared(opts, trace.NewFileTable(), recs[:n/2])}); err != nil {
		t.Fatal(err)
	}
	b.AddAll(recs[n/2:])
	if b.interner == nil || b.borrow != nil {
		t.Fatal("an Add left the master borrowing")
	}
	if !bytes.Equal(snapshotBytes(t, b), saveSlice(t, opts, recs)) {
		t.Fatal("fold then Add: snapshot differs from the slice path's")
	}
}
