package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"filemig/internal/trace"
	"filemig/internal/workload"
)

// snapshotBytes serializes a journaled analysis in the s1 format.
func snapshotBytes(t *testing.T, a *Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// masterPaths lists a master's paths in FileID order, whichever column
// holds them.
func masterPaths(a *Analysis) []string {
	view, order := a.pathColumn()
	if order == nil {
		return slices.Clone(view)
	}
	out := make([]string, len(order))
	for i, id := range order {
		out[i] = view[id]
	}
	return out
}

// sliceSnapshot is the reference every b2 snapshot is held to: the
// slice path over recs with the journal on.
func sliceSnapshot(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	a := New(Options{DedupWindow: workload.DedupWindow, Journal: true})
	a.AddAll(recs)
	return snapshotBytes(t, a)
}

// TestB2SnapshotEquivalence pins FileID assignment order, not just its
// rendering: an s1 snapshot carries the master's path table in FileID
// order and the journal under those IDs, so byte-equal snapshots mean
// the index-seek path — shard workers journaling under their decoders'
// table IDs, FoldPartials translating them lazily in journal order — numbered
// every file exactly as one pass over the records does. Slice path vs
// AccumulateStream over the b2 stream (the index path) at every worker
// count and shard width, vs AccumulateB2Blocks over block ranges, and vs
// the sequential streaming path over the decoded records (the
// distributed-run contract). Under -race
// the 3- and 8-worker runs over two dozen groups also exercise the
// prefix-view hand-off while workers are still appending.
func TestB2SnapshotEquivalence(t *testing.T) {
	res := streamFixture(t)
	opts := Options{DedupWindow: workload.DedupWindow, Journal: true}
	enc := encodeB2Blocks(t, res.Records, 64)
	recs, err := trace.ReadAll(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	want := sliceSnapshot(t, recs)

	streamed, err := AccumulateStream(context.Background(), StreamOptions{Options: opts}, trace.SliceStream(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, streamed), want) {
		t.Fatal("streamed snapshot differs from the slice path's")
	}

	day := 24 * time.Hour
	for _, workers := range []int{1, 2, 3, 8} {
		for _, shard := range []time.Duration{7 * day, 13 * day, 28 * day} {
			so := StreamOptions{Options: opts, Workers: workers, ShardDuration: shard}
			name := fmt.Sprintf("workers=%d/shard=%v", workers, shard)
			f := openB2(t, enc)
			if groups := len(B2TaskRanges(f, shard)); shard == 7*day && groups < 8 {
				t.Fatalf("fixture cuts into only %d groups at %v", groups, shard)
			}
			a, err := AccumulateStream(context.Background(), so, openB2Stream(t, enc))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(snapshotBytes(t, a), want) {
				t.Fatalf("%s: index-seek snapshot differs from the slice path's", name)
			}
		}
	}

	// Block ranges: each against the slice path over exactly its blocks.
	f := openB2(t, enc)
	n := f.NumBlocks()
	firstRec := make([]int64, n+1)
	for i := 0; i < n; i++ {
		firstRec[i+1] = firstRec[i] + f.Meta(i).Count
	}
	for _, r := range [][2]int{{0, n / 3}, {n / 3, n}, {n / 2, n/2 + 1}} {
		for _, workers := range []int{1, 3} {
			a, err := AccumulateB2Blocks(context.Background(), StreamOptions{
				Options: opts, Workers: workers, ShardDuration: 7 * day}, f, r[0], r[1])
			if err != nil {
				t.Fatalf("blocks %v: %v", r, err)
			}
			if !bytes.Equal(snapshotBytes(t, a), sliceSnapshot(t, recs[firstRec[r[0]]:firstRec[r[1]]])) {
				t.Fatalf("blocks %v workers=%d: snapshot differs from the slice path over those blocks", r, workers)
			}
		}
	}
}

// TestB2ErrorOnlyPathsStayOutOfMaster pins what the worker-wide table
// must not leak. A block decoder interns every path its dictionaries
// name, so — unlike the private per-shard tables before it — a worker's
// table also holds paths that only error records reference, and meets a
// path whose first mention is an error record earlier than any journal
// does. Neither may show in the master: its path table (and with it
// Table 4's file count and the s1 path section) holds exactly the paths
// good references name, in the order they first name them.
func TestB2ErrorOnlyPathsStayOutOfMaster(t *testing.T) {
	res := streamFixture(t)
	recs, err := trace.ReadAll(bytes.NewReader(encodeB2Blocks(t, res.Records, 64)))
	if err != nil {
		t.Fatal(err)
	}
	const errOnly, errFirst = "/mss/only/an/error/names/me", "/mss/an/error/names/me/first"
	var good *trace.Record
	for i := range recs {
		if recs[i].OK() {
			good = &recs[i]
			break
		}
	}
	// like clones the record at i under a new path and error code, so
	// time order holds wherever the clone is inserted beside it.
	like := func(i int, path string, code trace.ErrCode) trace.Record {
		r := *good
		r.Start, r.MSSPath, r.Err = recs[i].Start, path, code
		return r
	}
	n := len(recs)
	recs = slices.Insert(recs, 3*n/4, like(3*n/4, errFirst, trace.ErrNone))
	recs = slices.Insert(recs, n/2, like(n/2, errOnly, 1))
	recs = slices.Insert(recs, n/4, like(n/4, errFirst, 1))
	enc := encodeB2Blocks(t, recs, 64)

	// The premise: a decoder over the block holding the error-only record
	// does intern its path.
	f := openB2(t, enc)
	d := f.NewBlockDecoder(trace.NewSharedTable())
	interned := false
	for i := 0; i < f.NumBlocks() && !interned; i++ {
		if _, err := d.Decode(i); err != nil {
			t.Fatal(err)
		}
		_, interned = d.Table().Lookup(errOnly)
	}
	if !interned {
		t.Fatal("no block decoder ever interned the error-only path; the fixture proves nothing")
	}

	slice := New(Options{DedupWindow: workload.DedupWindow, Journal: true})
	slice.AddAll(recs)
	want := snapshotBytes(t, slice)
	for _, workers := range []int{1, 3} {
		a, err := AccumulateStream(context.Background(), StreamOptions{
			Options: Options{DedupWindow: workload.DedupWindow, Journal: true},
			Workers: workers, ShardDuration: 7 * 24 * time.Hour}, openB2Stream(t, enc))
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(masterPaths(a), errOnly) {
			t.Fatalf("workers=%d: the master took a path only an error record names", workers)
		}
		if !slices.Equal(masterPaths(a), masterPaths(slice)) {
			t.Fatalf("workers=%d: master path table differs from the slice path's", workers)
		}
		if got, want := a.Report().Table4.NumFiles, slice.Report().Table4.NumFiles; got != want {
			t.Fatalf("workers=%d: Table 4 counts %d files, slice path %d", workers, got, want)
		}
		if !bytes.Equal(snapshotBytes(t, a), want) {
			t.Fatalf("workers=%d: s1 snapshot differs from the slice path's", workers)
		}
	}
}

// TestB2AnalyzeRejectsResealedBlock is the analysis half of the block
// decoder's rejected-block contract (trace.TestB2DecoderRejectedBlock):
// a block that fails after its checksum verified may leave strays in its
// worker's table, so the shard — and with it the whole run — fails, with
// the same error at every worker count, rather than folding anything
// decoded beside it.
func TestB2AnalyzeRejectsResealedBlock(t *testing.T) {
	res := streamFixture(t)
	enc := encodeB2Blocks(t, res.Records, 50)
	// Point block 5's last local-path reference past its dictionary and
	// reseal the frame's CRC-32C, so only the column decode can object.
	lo, hi := b2BlockBody(t, enc, 5)
	enc[hi-1] = 0x7f
	binary.LittleEndian.PutUint32(enc[hi:], trace.Checksum(enc[lo:hi]))
	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		_, err := AnalyzeB2(context.Background(), B2Options{StreamOptions: StreamOptions{
			Workers: workers, ShardDuration: 7 * 24 * time.Hour}}, openB2(t, enc))
		if err == nil || !strings.Contains(err.Error(), "block 5") || !strings.Contains(err.Error(), "local path ref") {
			t.Fatalf("workers=%d: err = %v, want block 5's reference error", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[1] != msgs[0] || msgs[2] != msgs[0] {
		t.Fatalf("error differs across worker counts: %q", msgs)
	}
}

// TestB2WorkerGroupAllocs is the allocation ceiling for the index-seek
// worker path. A warm worker — table populated, block scratch grown —
// accumulating one group allocates the journal-only segment and its
// journal, presized from the index, and nothing per record: no
// group-sized []trace.Record, no per-shard interner, no derived series,
// no journal regrown from empty. The byte bound is one journal entry per
// record plus a little for the segment itself.
func TestB2WorkerGroupAllocs(t *testing.T) {
	res := streamFixture(t)
	// Few local paths, so the decoder's bounded local-path cache always
	// hits and its misses (one string each) stay out of the count.
	recs := slices.Clone(res.Records)
	for i := range recs {
		recs[i].LocalPath = fmt.Sprintf("/tmp/job%d", recs[i].UserID%8)
	}
	f := openB2(t, encodeB2Blocks(t, recs, 64))
	opts := StreamOptions{ShardDuration: DefaultShardDuration}
	opts.Start = f.Meta(0).Base.Truncate(24 * time.Hour)
	groups := b2Groups(opts, f, 0, f.NumBlocks())
	w := &b2Worker{opts: opts.Options, f: f, d: f.NewBlockDecoder(trace.NewSharedTable())}
	g := groups[0]
	for _, gg := range groups { // warm, and pick the largest group
		if _, err := w.accumulate(gg); err != nil {
			t.Fatal(err)
		}
		if gg.count > g.count {
			g = gg
		}
	}
	if g.count < 500 {
		t.Fatalf("largest group holds only %d records", g.count)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := w.accumulate(g); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	bytesPerRec := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1) / float64(g.count)
	t.Logf("%d records: %.0f allocs per group, %.1f B per record", g.count, allocs, bytesPerRec)
	if allocs > 4 {
		t.Errorf("one group costs %.0f allocations, want <= 4 whatever its record count", allocs)
	}
	if limit := float64(unsafe.Sizeof(journalEntry{}) + 8); bytesPerRec > limit {
		t.Errorf("one group allocates %.1f B per record, want <= %.0f (one journal entry and change)",
			bytesPerRec, limit)
	}
}
