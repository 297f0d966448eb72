package trace

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
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
// decode fast paths: decoding a whole trace costs a constant handful of
// allocations — none per record. v1 and b1 decode through a shared
// interner that AllocsPerRun's warm-up run fills, within a fixed budget
// (the reader, its buffers/scanner and scratch). A b2 stream owns its
// block decoder's path table, so its row reads a trace 40 times as long
// as the first and requires the same count, give or take the few
// regrowths of the frame scratch that longer block runs may take.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	const records = 2000
	allocs := func(want int, open func() Stream) float64 {
		return testing.AllocsPerRun(5, func() {
			src, n := open(), 0
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
			if n != want {
				t.Fatalf("decoded %d records, want %d", n, want)
			}
		})
	}
	for _, f := range []Format{FormatASCII, FormatBinary} {
		enc := allocTrace(t, f, records, 16)
		in := NewInterner()
		perRun := allocs(records, func() Stream {
			if f == FormatBinary {
				return NewBinaryReaderInterned(bytes.NewReader(enc), in)
			}
			return NewReaderInterned(bytes.NewReader(enc), in)
		})
		if perRun > 30 {
			t.Errorf("%v: steady-state decode of %d records allocates %v per run, want <= 30",
				f, records, perRun)
		}
	}
	var perRun [2]float64
	for i, n := range []int{records, 40 * records} {
		enc := allocTrace(t, FormatB2, n, 16)
		perRun[i] = allocs(n, func() Stream {
			s, err := OpenStream(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	}
	if perRun[1]-perRun[0] > 4 {
		t.Errorf("b2: decoding %d records allocates %v per run, %d records %v: want no allocation per record",
			records, perRun[0], 40*records, perRun[1])
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
	d := f.NewBlockDecoder(NewSharedTable())
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

// TestPrivateReaderBytesPerRecord bounds what a reader's private path
// table costs when every record names a new file in a new directory:
// the table derives no directories, since nothing reads them, so
// decoding pays for the path strings and their index, not a directory
// string and map entry per record on top.
func TestPrivateReaderBytesPerRecord(t *testing.T) {
	const records = 20000
	recs := make([]Record, records)
	for i := range recs {
		recs[i] = Record{
			Start: Epoch.Add(time.Duration(i) * time.Second), Op: Read,
			Device: device.ClassSiloTape, Size: units.Bytes(1e6 + i),
			MSSPath:   fmt.Sprintf("/mss/project%06d/run/output.dat", i),
			LocalPath: "/tmp/job", UserID: 100,
		}
	}
	for _, tc := range []struct {
		f    Format
		open func(io.Reader) Stream
	}{
		{FormatASCII, func(r io.Reader) Stream { return NewReader(r) }},
		{FormatBinary, func(r io.Reader) Stream { return NewBinaryReader(r) }},
	} {
		var buf bytes.Buffer
		if err := WriteAllFormat(&buf, recs, tc.f); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := tc.open(bytes.NewReader(buf.Bytes()))
		for {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRec := float64(after.TotalAlloc-before.TotalAlloc) / records
		if perRec > 200 {
			t.Errorf("%v: private-table decode allocates %.1f B/record, want <= 200", tc.f, perRec)
		}
	}
}
