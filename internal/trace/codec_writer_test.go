package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

// fmtWriter is the v1 writer as it was before Writer.Write appended its
// line by hand: the flags built in a strings.Builder, the record line
// formatted by one fmt.Fprintf. It is the reference the append form must
// match byte for byte and error for error.
type fmtWriter struct {
	w         *bufio.Writer
	epoch     time.Time
	headerOut bool
	prevStart time.Time
	prevUID   uint32
	prevSet   bool
}

func newFmtWriter(w io.Writer, epoch time.Time) *fmtWriter {
	return &fmtWriter{w: bufio.NewWriterSize(w, 1<<16), epoch: epoch, prevStart: epoch}
}

func (w *fmtWriter) Write(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if !w.headerOut {
		if _, err := fmt.Fprintf(w.w, "%s%d\n", headerPrefix, w.epoch.Unix()); err != nil {
			return err
		}
		w.headerOut = true
	}
	dt := int64(r.Start.Sub(w.prevStart) / time.Second)
	if dt < 0 {
		return fmt.Errorf("trace: record at %v out of order (previous %v)", r.Start, w.prevStart)
	}
	var flags strings.Builder
	if r.Op == Read {
		flags.WriteByte('R')
	} else {
		flags.WriteByte('W')
	}
	if r.Compressed {
		flags.WriteByte('C')
	}
	if r.Err != ErrNone {
		flags.WriteByte('E')
		flags.WriteString(r.Err.String())
	}
	uid := strconv.FormatUint(uint64(r.UserID), 10)
	if w.prevSet && r.UserID == w.prevUID {
		uid = "="
	}
	_, err := fmt.Fprintf(w.w, "%d %s %s %s %d %d %d %s %s %s\n",
		dt, r.Source(), r.Destination(), flags.String(),
		int64(r.Startup/time.Second), int64(r.Transfer/time.Millisecond),
		int64(r.Size), uid, r.MSSPath, r.LocalPath)
	if err != nil {
		return err
	}
	w.prevStart = w.prevStart.Add(time.Duration(dt) * time.Second)
	w.prevUID = r.UserID
	w.prevSet = true
	return nil
}

// checkV1WriterMatchesFmt feeds recs to both writers and compares every
// Write's error and the bytes written.
func checkV1WriterMatchesFmt(t *testing.T, epoch time.Time, recs []Record) {
	t.Helper()
	var got, want bytes.Buffer
	w, ref := NewWriterEpoch(&got, epoch), newFmtWriter(&want, epoch)
	accepted := int64(0)
	for i := range recs {
		gerr, werr := w.Write(&recs[i]), ref.Write(&recs[i])
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("record %d: append writer error %v, fmt writer error %v", i, gerr, werr)
		}
		if gerr == nil {
			accepted++
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != accepted {
		t.Errorf("Count = %d, want %d", w.Count(), accepted)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, r := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(r) && g[i] == r[i] {
			i++
		}
		lo, clip := max(0, i-60), func(b []byte) []byte { return b[:min(len(b), i+60)] }
		t.Fatalf("output differs at byte %d:\n append %q\n fmt    %q", i, clip(g)[min(lo, len(g)):], clip(r)[min(lo, len(r)):])
	}
}

func TestV1WriterMatchesFmt(t *testing.T) {
	at := func(d time.Duration) time.Time { return Epoch.Add(d) }
	rec := func(start time.Time, uid uint32, edit func(*Record)) Record {
		r := Record{Start: start, Op: Read, Device: device.ClassDisk, Size: units.Bytes(units.MB),
			MSSPath: "/mss/a", LocalPath: "/tmp/a", UserID: uid}
		if edit != nil {
			edit(&r)
		}
		return r
	}
	long := strings.Repeat("/deep", 14000) // a 70 000-byte path: the line outgrows the 64 KiB buffer
	cases := map[string][]Record{
		"ops, devices, compression": {
			rec(at(0), 7, nil),
			rec(at(time.Second), 8, func(r *Record) { r.Op = Write; r.Device = device.ClassSiloTape }),
			rec(at(2*time.Second), 9, func(r *Record) { r.Compressed = true; r.Device = device.ClassManualTape }),
			rec(at(3*time.Second), 9, func(r *Record) { r.Op = Write; r.Compressed = true; r.Device = device.ClassOptical }),
		},
		"every error class": {
			rec(at(0), 1, func(r *Record) { r.Err = ErrNoFile; r.Size = 0 }),
			rec(at(0), 2, func(r *Record) { r.Err = ErrMedia }),
			rec(at(0), 3, func(r *Record) { r.Err = ErrTerminated; r.Compressed = true; r.Op = Write }),
			rec(at(0), 4, func(r *Record) { r.Err = ErrCode(7) }),
			rec(at(0), 5, func(r *Record) { r.Err = ErrCode(-2) }),
		},
		"same-user rule": {
			rec(at(0), 0, nil), // first record, uid 0: written out, never "="
			rec(at(time.Second), 0, nil),
			rec(at(2*time.Second), 5, nil),
			rec(at(3*time.Second), 5, nil),
			rec(at(4*time.Second), math.MaxUint32, nil),
			rec(at(5*time.Second), math.MaxUint32, nil),
			rec(at(6*time.Second), 0, nil),
		},
		"size extremes": {
			rec(at(0), 1, func(r *Record) { r.Size = 0 }),
			rec(at(time.Second), 1, func(r *Record) { r.Size = math.MaxInt64 }),
		},
		"sub-second truncation": {
			rec(at(1500*time.Millisecond), 1, func(r *Record) { r.Startup = 1999 * time.Millisecond; r.Transfer = 999 * time.Microsecond }),
			rec(at(1900*time.Millisecond), 1, func(r *Record) { r.Startup = 999 * time.Millisecond; r.Transfer = 1999 * time.Microsecond }),
			// 1.2 s precedes the raw previous start (1.9 s) but not the
			// truncated one the reader reconstructs (1 s): accepted, dt 0.
			rec(at(1200*time.Millisecond), 1, nil),
			rec(at(2100*time.Millisecond), 2, func(r *Record) { r.Startup = math.MaxInt64; r.Transfer = math.MaxInt64 }),
			rec(at(1000*time.Millisecond), 2, nil), // a whole second before the truncated previous start: refused
			rec(at(5*time.Second), 2, nil),
		},
		"line longer than the buffer": {
			rec(at(0), 1, nil),
			rec(at(time.Second), 1, func(r *Record) { r.MSSPath = long }),
			rec(at(2*time.Second), 1, func(r *Record) { r.LocalPath = long; r.MSSPath = long }),
			rec(at(3*time.Second), 2, nil),
		},
		"refused records leave no trace": {
			rec(time.Time{}, 1, nil),
			rec(at(0), 1, func(r *Record) { r.MSSPath = "has space" }),
			rec(at(0), 1, func(r *Record) { r.Size = -1 }),
			rec(at(0), 1, func(r *Record) { r.Device = device.ClassSSD }),
			rec(at(0), 1, func(r *Record) { r.Op = Op(3) }),
			rec(at(10*time.Second), 1, nil),
			rec(at(9*time.Second), 1, nil), // out of order
			rec(at(10*time.Second), 1, nil),
		},
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) { checkV1WriterMatchesFmt(t, Epoch, recs) })
	}
	t.Run("buffer fills at every offset", func(t *testing.T) {
		// 3000 lines of slowly varying length walk the line boundary across
		// the 64 KiB buffer edge at many different offsets.
		var recs []Record
		for i := 0; i < 3000; i++ {
			recs = append(recs, rec(at(time.Duration(i)*time.Second), uint32(i/3), func(r *Record) {
				r.MSSPath = "/mss/" + strings.Repeat("x", i%97)
				r.Size = units.Bytes(i) * 1e9
			}))
		}
		checkV1WriterMatchesFmt(t, Epoch, recs)
	})
}

// fuzzRecords decodes fuzzer bytes into a record sequence: 16 bytes a
// record, every field reachable, start deltas sub-second and now and
// then negative.
func fuzzRecords(data []byte) []Record {
	var recs []Record
	start := Epoch
	for ; len(data) >= 16; data = data[16:] {
		start = start.Add(time.Duration(int32(binary.LittleEndian.Uint32(data[0:4]))) * time.Millisecond / 8)
		flags := data[4]
		r := Record{
			Start:      start,
			Op:         Op(flags & 1),
			Compressed: flags&2 != 0,
			Device:     device.Class(flags >> 2 & 7),
			Err:        ErrCode(int8(data[5]) % 6),
			Startup:    time.Duration(binary.LittleEndian.Uint16(data[6:8])) * 37 * time.Millisecond,
			Transfer:   time.Duration(binary.LittleEndian.Uint16(data[8:10])) * 1234 * time.Microsecond,
			Size:       units.Bytes(int64(binary.LittleEndian.Uint32(data[10:14])) << (data[14] % 33)),
			UserID:     uint32(data[15] % 4),
			MSSPath:    "/mss/" + strconv.Itoa(int(data[14])),
			LocalPath:  "/tmp/" + strings.Repeat("p", int(data[15])),
		}
		if flags&32 != 0 {
			r.UserID = math.MaxUint32 - uint32(data[15])
		}
		if flags&64 != 0 && data[15] == 0 {
			r.LocalPath = "" // invalid: refused by Validate
		}
		recs = append(recs, r)
	}
	return recs
}

// FuzzV1WriterMatchesFmt is the differential fuzzer for the append
// writer: whatever record sequence the fuzzer builds, accepted or
// refused, both writers must agree on every error and every byte.
func FuzzV1WriterMatchesFmt(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1, 0, 0, 0, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 3))
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0xff, 0xff, 0x4f, 0x81, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 32, 0}, 2))
	f.Add([]byte("a line of plain text, thirty-two."))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkV1WriterMatchesFmt(t, Epoch, fuzzRecords(data))
	})
}

// TestV1WriterAllocs holds steady-state Write to zero allocations: the
// line goes straight into the buffered writer's free space.
func TestV1WriterAllocs(t *testing.T) {
	recs := sampleRecords()
	recs = append(recs, Record{Start: recs[3].Start, Op: Write, Device: device.ClassOptical, Err: ErrTerminated,
		Compressed: true, Size: math.MaxInt64, MSSPath: "/mss/u3/z", LocalPath: "/tmp/z", UserID: math.MaxUint32})
	w := NewWriterEpoch(io.Discard, Epoch)
	for i := range recs { // header and first flushes out of the way
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	last := recs[len(recs)-1].Start
	allocs := testing.AllocsPerRun(2000, func() {
		for i := range recs {
			r := recs[i]
			r.Start = last
			if err := w.Write(&r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Write allocates %.2f times per %d records, want 0", allocs, len(recs))
	}
}
