package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"filemig/internal/trace"
)

// encodeB2Blocks encodes records as a b2 trace cut into blocks of the
// given size, so index-seek tests get many blocks from a modest
// fixture. The epoch is the first record's start, as WriteAllFormat
// uses.
func encodeB2Blocks(t *testing.T, recs []trace.Record, perBlock int) []byte {
	t.Helper()
	if len(recs) == 0 {
		t.Fatal("encodeB2Blocks needs records")
	}
	var buf bytes.Buffer
	w := trace.NewB2WriterEpochBlock(&buf, recs[0].Start, perBlock)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openB2 opens an encoded b2 trace seekably.
func openB2(t *testing.T, enc []byte) *trace.B2File {
	f, _ := openB2Counted(t, enc)
	return f
}

// countingReaderAt counts ReadAt calls: after the open, each one reads
// one block's frame.
type countingReaderAt struct {
	r     io.ReaderAt
	calls atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls.Add(1)
	return c.r.ReadAt(p, off)
}

// openB2Counted opens an encoded b2 trace seekably and returns with it
// a count of the blocks read since the open.
func openB2Counted(t *testing.T, enc []byte) (*trace.B2File, func() int64) {
	t.Helper()
	c := &countingReaderAt{r: bytes.NewReader(enc)}
	f, err := trace.OpenB2File(c, int64(len(enc)))
	if err != nil {
		t.Fatalf("OpenB2File: %v", err)
	}
	opened := c.calls.Load()
	return f, func() int64 { return c.calls.Load() - opened }
}

// openB2Stream opens an encoded b2 trace the way every reader does
// (trace.OpenStream): the stream AccumulateStream analyses through its
// block index.
func openB2Stream(t *testing.T, enc []byte) trace.Stream {
	t.Helper()
	src, err := trace.OpenStream(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	return src
}

// TestB2Equivalence is the acceptance test for the b2 analysis paths:
// every format (ascii, b1, b2), through both the slice and the stream
// analysis, and the b2 index-seek path at every worker count and shard
// width, must render byte-identical tables and figures — and the
// index-seek path must decode each block exactly once, with zero
// decodes spent on planning.
func TestB2Equivalence(t *testing.T) {
	res := streamFixture(t)

	// Each codec quantizes times onto its wire grid, so every comparison
	// is against the slice path over the records as decoded from that
	// same encoding.
	sliceWant := func(enc []byte, opts Options) string {
		recs, err := trace.ReadAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		slice := New(opts)
		slice.AddAll(recs)
		return renderAll(slice.Report())
	}

	// Sequential stream analysis over each encoded format.
	for _, f := range []trace.Format{trace.FormatASCII, trace.FormatBinary, trace.FormatB2} {
		var encf bytes.Buffer
		if err := trace.WriteAllFormat(&encf, res.Records, f); err != nil {
			t.Fatal(err)
		}
		want := sliceWant(encf.Bytes(), Options{})
		src, err := trace.OpenStream(bytes.NewReader(encf.Bytes()))
		if err != nil {
			t.Fatalf("%v: OpenStream: %v", f, err)
		}
		rep, err := AnalyzeStream(context.Background(), StreamOptions{}, src)
		if err != nil {
			t.Fatalf("%v: AnalyzeStream: %v", f, err)
		}
		if got := renderAll(rep); got != want {
			t.Fatalf("%v: stream analysis diverged from slice path:\n%s", f, firstDiff(want, got))
		}
	}

	// The index-seek path over a many-block encoding, with the calendar
	// origin taken from the first record, or pinned two days before its
	// day, or three days after it — where the records before the origin
	// take negative day and hour indices.
	enc := encodeB2Blocks(t, res.Records, 64)
	want := sliceWant(enc, Options{})
	day0 := res.Records[0].Start.Truncate(24 * time.Hour)
	for _, origin := range []struct {
		name  string
		start time.Time
	}{{"", time.Time{}}, {"start=-2d/", day0.AddDate(0, 0, -2)}, {"start=+3d/", day0.AddDate(0, 0, 3)}} {
		want := want
		if !origin.start.IsZero() {
			want = sliceWant(enc, Options{Start: origin.start})
		}
		for _, workers := range []int{1, 2, 8} {
			for _, shard := range []time.Duration{DefaultShardDuration, 24 * time.Hour, 3 * time.Hour} {
				t.Run(fmt.Sprintf("indexseek/%sworkers=%d/shard=%v", origin.name, workers, shard), func(t *testing.T) {
					f, reads := openB2Counted(t, enc)
					rep, err := AnalyzeB2(context.Background(), B2Options{StreamOptions: StreamOptions{
						Options:       Options{Start: origin.start},
						Workers:       workers,
						ShardDuration: shard,
					}}, f)
					if err != nil {
						t.Fatalf("AnalyzeB2: %v", err)
					}
					if got := renderAll(rep); got != want {
						t.Fatalf("index-seek analysis diverged from slice path:\n%s", firstDiff(want, got))
					}
					if got, blocks := reads(), int64(f.NumBlocks()); got != blocks {
						t.Fatalf("decoded %d blocks, want each of %d exactly once", got, blocks)
					}
				})
			}
		}
	}

	// The parallel block stream feeding the ordinary stream analysis.
	f := openB2(t, enc)
	rep, err := AnalyzeStream(context.Background(), StreamOptions{}, f.Stream(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(rep); got != want {
		t.Fatalf("parallel block stream diverged from slice path:\n%s", firstDiff(want, got))
	}
}

// TestAccumulateStreamB2AfterARecord pins what AccumulateStream does
// with a b2 stream that has already yielded a record: the index path is
// not taken — nothing restarts from block 0 — and the rest is read
// record by record, so the analysis is the slice path's over exactly the
// remaining records, whatever the worker count and shard width.
func TestAccumulateStreamB2AfterARecord(t *testing.T) {
	res := streamFixture(t)
	enc := encodeB2Blocks(t, res.Records, 64)
	recs, err := trace.ReadAll(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	slice := New(Options{})
	slice.AddAll(recs[1:])
	want := renderAll(slice.Report())
	for _, workers := range []int{1, 4} {
		src := openB2Stream(t, enc)
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeStream(context.Background(), StreamOptions{Workers: workers, ShardDuration: 24 * time.Hour}, src)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderAll(rep); got != want {
			t.Fatalf("workers=%d: analysis after one record differs from the slice path over the rest:\n%s",
				workers, firstDiff(want, got))
		}
	}
}

// TestB2IndexSeekSkipsBlocks proves the shard cutter plans from the
// index alone: opening and cutting task ranges decode nothing, and a
// block-range analysis never decodes a block outside its range.
func TestB2IndexSeekSkipsBlocks(t *testing.T) {
	res := streamFixture(t)
	enc := encodeB2Blocks(t, res.Records, 50)

	f, reads := openB2Counted(t, enc)
	ranges := B2TaskRanges(f, 5*24*time.Hour)
	if got := reads(); got != 0 {
		t.Fatalf("opening and planning decoded %d blocks", got)
	}
	if len(ranges) < 3 {
		t.Fatalf("fixture cuts into only %d ranges", len(ranges))
	}
	r := ranges[len(ranges)/2]
	for _, workers := range []int{1, 8} {
		f, reads := openB2Counted(t, enc)
		_, err := AccumulateB2Blocks(context.Background(),
			StreamOptions{Workers: workers, ShardDuration: 24 * time.Hour}, f, r[0], r[1])
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := reads(), int64(r[1]-r[0]); got != want {
			t.Fatalf("workers=%d: decoded %d blocks, want exactly the %d in range", workers, got, want)
		}
	}
}

// TestB2AnalyzeErrorsDeterministic corrupts one block and checks every
// worker count reports the same earliest failing block.
func TestB2AnalyzeErrorsDeterministic(t *testing.T) {
	res := streamFixture(t)
	enc := encodeB2Blocks(t, res.Records, 50)
	probe := openB2(t, enc)
	if probe.NumBlocks() < 8 {
		t.Fatalf("fixture has only %d blocks", probe.NumBlocks())
	}

	// Flip a byte inside block 5's body; the frame CRC catches it.
	mut := append([]byte(nil), enc...)
	mut[b2BlockBodyOffset(t, enc, 5)] ^= 0x40

	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		f := openB2(t, mut)
		_, err := AnalyzeB2(context.Background(), B2Options{StreamOptions: StreamOptions{Workers: workers}}, f)
		if err == nil {
			t.Fatalf("workers=%d: corrupt block accepted", workers)
		}
		if !strings.Contains(err.Error(), "block 5") {
			t.Fatalf("workers=%d: error does not name the failing block: %v", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("error differs across worker counts:\n%q\n%q", msgs[0], m)
		}
	}
}

// TestB2AnalyzeStopsDecodingAfterFailedGroup pins that a failed block
// stops dispatch: with an early block corrupt, the earliest block's
// error comes back and only the groups the pool's window had already
// admitted — Workers+1 from the failing one on — are ever decoded, not
// the whole file.
func TestB2AnalyzeStopsDecodingAfterFailedGroup(t *testing.T) {
	const workers = 2
	const shard = 24 * time.Hour
	res := streamFixture(t)
	enc := encodeB2Blocks(t, res.Records, 20)
	groups := B2TaskRanges(openB2(t, enc), shard)
	if len(groups) < 40 {
		t.Fatalf("fixture cuts into only %d groups", len(groups))
	}
	const failing = 2 // group index
	bad := groups[failing][0]
	mut := append([]byte(nil), enc...)
	mut[b2BlockBodyOffset(t, enc, bad)] ^= 0x40
	// A later corrupt block must neither win nor be reached.
	mut[b2BlockBodyOffset(t, enc, groups[len(groups)-1][0])] ^= 0x40

	f, reads := openB2Counted(t, mut)
	_, err := AnalyzeB2(context.Background(),
		B2Options{StreamOptions: StreamOptions{Workers: workers, ShardDuration: shard}}, f)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d ", bad)) {
		t.Fatalf("err = %v, want block %d's", err, bad)
	}
	// The failing group is never folded, so the window admits at most
	// groups failing..failing+workers after the ones before it.
	limit := int64(groups[failing+workers][1])
	if got := reads(); got > limit {
		t.Errorf("decoded %d blocks after group %d failed, want <= %d", got, failing, limit)
	}
	if limit*4 > int64(f.NumBlocks()) {
		t.Fatalf("fixture too small to show the stop: limit %d of %d blocks", limit, f.NumBlocks())
	}
}

// b2BlockBody walks the documented frame layout — a one-line header,
// then framed sections of tag byte, uvarint body length, body, and
// 4-byte CRC (docs/trace-format.md) — and returns block i's body bounds
// [lo, hi) in enc; its CRC sits at hi.
func b2BlockBody(t *testing.T, enc []byte, i int) (lo, hi int) {
	t.Helper()
	off := bytes.IndexByte(enc, '\n') + 1
	for b := 0; ; b++ {
		if off >= len(enc) || enc[off] != 0x01 {
			t.Fatalf("no block frame at offset %d (looking for block %d)", off, i)
		}
		n, k := binary.Uvarint(enc[off+1:])
		if k <= 0 {
			t.Fatalf("bad frame length at offset %d", off)
		}
		if b == i {
			return off + 1 + k, off + 1 + k + int(n)
		}
		off += 1 + k + int(n) + 4
	}
}

// b2BlockBodyOffset returns an offset in the middle of block i's body.
func b2BlockBodyOffset(t *testing.T, enc []byte, i int) int {
	t.Helper()
	lo, hi := b2BlockBody(t, enc, i)
	return lo + (hi-lo)/2
}
