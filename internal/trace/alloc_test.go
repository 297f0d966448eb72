package trace

import (
	"bytes"
	"io"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

// allocTrace builds a trace of many records over few distinct paths —
// the shape real traces have, and the one the interned decode fast path
// is built for.
func allocTrace(t *testing.T, f Format, records, paths int) []byte {
	t.Helper()
	recs := make([]Record, 0, records)
	for i := 0; i < records; i++ {
		recs = append(recs, Record{
			Start: Epoch.Add(time.Duration(i) * 30 * time.Second),
			Op:    Op(i % 2), Device: device.ClassSiloTape,
			Startup: 5 * time.Second, Transfer: 800 * time.Millisecond,
			Size:      units.Bytes(1e6 + i),
			MSSPath:   "/mss/u" + string(rune('a'+i%paths)) + "/data",
			LocalPath: "/tmp/job" + string(rune('a'+i%paths)),
			UserID:    uint32(100 + i%paths),
		})
	}
	var buf bytes.Buffer
	if err := WriteAllFormat(&buf, recs, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSteadyStateAllocs is the allocation-regression guard for the
// interned decode fast path: with a pre-warmed shared interner, decoding
// a whole trace costs a constant handful of allocations (reader, buffers)
// — none per record.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	const records = 2000
	for _, f := range []Format{FormatASCII, FormatBinary, FormatB2} {
		enc := allocTrace(t, f, records, 16)
		in := NewInterner()
		drain := func() {
			var src Stream
			switch f {
			case FormatBinary:
				src = NewBinaryReaderInterned(bytes.NewReader(enc), in)
			case FormatB2:
				src = NewB2ReaderInterned(bytes.NewReader(enc), in)
			default:
				src = NewReaderInterned(bytes.NewReader(enc), in)
			}
			n := 0
			for {
				_, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				n++
			}
			if n != records {
				t.Fatalf("decoded %d records, want %d", n, records)
			}
		}
		drain() // warm the interner
		perRun := testing.AllocsPerRun(5, drain)
		// Per run: the reader, its buffers/scanner and scratch — a
		// constant independent of the record count. The b2 reader's
		// constant is a little larger: it also owns a whole-block record
		// buffer, the per-block dictionary slices, and its intern
		// closures.
		budget := 30.0
		if f == FormatB2 {
			budget = 45
		}
		if perRun > budget {
			t.Errorf("%v: steady-state decode of %d records allocates %v per run, want <= %v",
				f, records, perRun, budget)
		}
	}
}

// TestB2BlockDecodeSteadyStateAllocs guards the b2 block-decode hot
// path (decodeB2Columns and the frame machinery around it): with a
// warm decoder — interner populated, frame scratch grown — re-decoding
// a block into a caller-owned slice must not allocate at all.
func TestB2BlockDecodeSteadyStateAllocs(t *testing.T) {
	enc := allocTrace(t, FormatB2, 2000, 16)
	f, err := OpenB2File(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	d := f.NewBlockDecoder()
	dst := make([]Record, f.Meta(0).Count)
	ids := make([]FileID, len(dst))
	decode := func() {
		if err := d.DecodeInto(0, dst, ids); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm the interner and the decoder's frame scratch
	if perRun := testing.AllocsPerRun(10, decode); perRun > 0 {
		t.Errorf("steady-state block decode allocates %v per run, want 0", perRun)
	}
}
