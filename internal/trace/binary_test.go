package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

func encodeBinary(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAllFormat(&buf, recs, FormatBinary); err != nil {
		t.Fatalf("WriteAllFormat(binary): %v", err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords()
	got, err := ReadAll(bytes.NewReader(encodeBinary(t, recs)))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("binary round trip mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
}

// TestBinaryMatchesASCII is the transcoding property: both codecs quantise
// identically, so decoding the ASCII and binary encodings of the same
// trace must yield identical records — including traces whose sub-second
// start offsets are truncated by the delta encoding.
func TestBinaryMatchesASCII(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randomRecords(rng, 500)

	var ascii bytes.Buffer
	if err := WriteAllFormat(&ascii, recs, FormatASCII); err != nil {
		t.Fatalf("ascii encode: %v", err)
	}
	fromASCII, err := ReadAll(&ascii)
	if err != nil {
		t.Fatalf("ascii decode: %v", err)
	}
	fromBinary, err := ReadAll(bytes.NewReader(encodeBinary(t, recs)))
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if len(fromASCII) != len(fromBinary) {
		t.Fatalf("decoded %d ascii vs %d binary records", len(fromASCII), len(fromBinary))
	}
	for i := range fromASCII {
		if !reflect.DeepEqual(fromASCII[i], fromBinary[i]) {
			t.Fatalf("record %d differs between codecs:\nascii  %+v\nbinary %+v",
				i, fromASCII[i], fromBinary[i])
		}
	}
}

// randomRecords builds a valid, time-sorted trace with every flag
// combination exercised, including sub-second jitter that the codecs
// truncate.
func randomRecords(rng *rand.Rand, n int) []Record {
	devs := []device.Class{device.ClassDisk, device.ClassSiloTape,
		device.ClassManualTape, device.ClassOptical}
	errs := []ErrCode{ErrNone, ErrNone, ErrNone, ErrNoFile, ErrMedia, ErrTerminated}
	recs := make([]Record, 0, n)
	at := Epoch.Add(time.Duration(rng.Intn(1000)) * time.Second)
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(rng.Intn(100000)) * time.Millisecond)
		op := Read
		if rng.Intn(3) == 0 {
			op = Write
		}
		recs = append(recs, Record{
			Start:      at,
			Op:         op,
			Device:     devs[rng.Intn(len(devs))],
			Err:        errs[rng.Intn(len(errs))],
			Compressed: rng.Intn(4) == 0,
			Startup:    time.Duration(rng.Intn(500)) * time.Second,
			Transfer:   time.Duration(rng.Intn(200000)) * time.Millisecond,
			Size:       units.Bytes(rng.Int63n(200e6)),
			MSSPath:    "/mss/u" + string(rune('a'+rng.Intn(26))) + "/f",
			LocalPath:  "/usr/tmp/x",
			UserID:     uint32(rng.Intn(40)),
		})
	}
	return recs
}

func TestBinarySameUserBit(t *testing.T) {
	recs := sampleRecords() // users 101,101,202,202: two same-user transitions
	full := encodeBinary(t, recs)
	// Re-encode with distinct users; the same-user bit saves one uvarint
	// per repeat, so the distinct-user encoding must be strictly larger.
	distinct := append([]Record(nil), recs...)
	for i := range distinct {
		distinct[i].UserID = uint32(1000 + 100*i)
	}
	if d := encodeBinary(t, distinct); len(d) <= len(full) {
		t.Fatalf("distinct-user encoding (%d bytes) not larger than same-user (%d bytes)",
			len(d), len(full))
	}
	got, err := ReadAll(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range recs {
		if got[i].UserID != recs[i].UserID {
			t.Fatalf("record %d uid = %d, want %d", i, got[i].UserID, recs[i].UserID)
		}
	}
}

func TestBinarySmallerThanASCII(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randomRecords(rng, 2000)
	var ascii bytes.Buffer
	if err := WriteAllFormat(&ascii, recs, FormatASCII); err != nil {
		t.Fatal(err)
	}
	bin := encodeBinary(t, recs)
	if len(bin) >= ascii.Len() {
		t.Fatalf("binary (%d bytes) not smaller than ascii (%d bytes)", len(bin), ascii.Len())
	}
}

// TestBinaryTruncationFailsCleanly cuts a valid binary trace at every
// byte boundary and asserts the reader returns a clean error or a short
// read — never a panic, never fabricated records beyond the cut.
func TestBinaryTruncationFailsCleanly(t *testing.T) {
	recs := sampleRecords()
	full := encodeBinary(t, recs)
	for cut := 0; cut < len(full); cut++ {
		got, err := ReadAll(bytes.NewReader(full[:cut]))
		if err == nil && len(got) >= len(recs) {
			t.Fatalf("cut at %d of %d still decoded %d records with no error",
				cut, len(full), len(got))
		}
		if len(got) > len(recs) {
			t.Fatalf("cut at %d fabricated %d records", cut, len(got))
		}
	}
}

// TestBinaryCorruptionFailsCleanly flips each byte of the payload and
// asserts decoding never panics. (Some flips decode to different but
// structurally valid records; flips that break framing must error.)
func TestBinaryCorruptionFailsCleanly(t *testing.T) {
	recs := sampleRecords()
	full := encodeBinary(t, recs)
	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at byte %d panicked: %v", i, r)
				}
			}()
			_, _ = ReadAll(bytes.NewReader(mut))
		}()
	}
}

func TestBinaryRejectsReservedFlagBit(t *testing.T) {
	full := encodeBinary(t, sampleRecords())
	// The first byte after the header line is the first record's flags.
	idx := bytes.IndexByte(full, '\n') + 1
	mut := append([]byte(nil), full...)
	mut[idx] |= binFlagReserved
	if _, err := ReadAll(bytes.NewReader(mut)); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Fatalf("reserved-bit flags byte not rejected: %v", err)
	}
}

func TestBinaryRejectsHugePathLength(t *testing.T) {
	r := sampleRecords()[0]
	var buf bytes.Buffer
	w := NewBinaryWriterEpoch(&buf, Epoch)
	if err := w.Write(&r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Overwrite the mss-path length varint (first byte after the fixed
	// numeric fields) with a 5-byte varint encoding ~1 GiB.
	i := bytes.Index(full, []byte(r.MSSPath))
	mut := append([]byte(nil), full[:i-1]...)
	mut = append(mut, 0xff, 0xff, 0xff, 0xff, 0x04)
	mut = append(mut, full[i:]...)
	_, err := ReadAll(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("huge path length not rejected: %v", err)
	}

	// The writer enforces the same bound, so every record it accepts
	// round-trips.
	long := r
	long.MSSPath = "/" + strings.Repeat("x", maxBinaryPathLen)
	w2 := NewBinaryWriterEpoch(&bytes.Buffer{}, Epoch)
	if err := w2.Write(&long); err == nil {
		t.Fatal("writer accepted a path longer than the decoder allows")
	}
}

// TestBinaryRejectsOverflowingVarints crafts records whose duration
// varints would wrap int64 nanoseconds; decoding must error, not
// produce garbage timestamps.
func TestBinaryRejectsOverflowingVarints(t *testing.T) {
	craft := func(dt, startup uint64) []byte {
		b := []byte("#filemig-trace b1 epoch=654739200\n")
		b = append(b, 0) // flags: read, disk, no error
		b = binary.AppendUvarint(b, dt)
		b = binary.AppendUvarint(b, startup)
		b = binary.AppendUvarint(b, 0) // transfer
		b = binary.AppendUvarint(b, 1) // size
		b = binary.AppendUvarint(b, 7) // uid
		b = binary.AppendUvarint(b, 2)
		b = append(b, "/a"...)
		b = binary.AppendUvarint(b, 2)
		b = append(b, "/b"...)
		return b
	}
	for name, enc := range map[string][]byte{
		"dt=1<<60":      craft(1<<60, 0),
		"startup=1<<56": craft(0, 1<<56),
	} {
		if _, err := ReadAll(bytes.NewReader(enc)); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: decode err = %v, want out-of-range error", name, err)
		}
	}
	// Control: the same frame with sane values decodes.
	if got, err := ReadAll(bytes.NewReader(craft(10, 4))); err != nil || len(got) != 1 {
		t.Fatalf("control record failed to decode: %v (%d records)", err, len(got))
	}
}

func TestBinaryWriterRejectsOutOfOrder(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewBinaryWriterEpoch(&buf, recs[1].Start)
	if err := w.Write(&recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[0]); err == nil {
		t.Fatal("out-of-order record accepted")
	}
}

func TestOpenStreamDetectsFormats(t *testing.T) {
	recs := sampleRecords()
	var ascii bytes.Buffer
	if err := WriteAllFormat(&ascii, recs, FormatASCII); err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string][]byte{
		"ascii":  ascii.Bytes(),
		"binary": encodeBinary(t, recs),
	} {
		s, err := OpenStream(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: OpenStream: %v", name, err)
		}
		got, err := Collect(s)
		if err != nil {
			t.Fatalf("%s: Collect: %v", name, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: got %d records, want %d", name, len(got), len(recs))
		}
	}
}

func TestOpenStreamEmptyAndGarbage(t *testing.T) {
	s, err := OpenStream(bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("empty input: %v", err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("empty stream Next = %v, want io.EOF", err)
	}
	if _, err := OpenStream(strings.NewReader("#filemig-trace q9 epoch=0\n1 2 3")); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := OpenStream(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("garbage header accepted")
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"ascii": FormatASCII, "v1": FormatASCII, "text": FormatASCII,
		"binary": FormatBinary, "b1": FormatBinary, "bin": FormatBinary,
	} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseFormat("json"); err == nil {
		t.Fatal("bad format accepted")
	}
	if FormatASCII.String() != "ascii" || FormatBinary.String() != "binary" {
		t.Fatal("Format.String drifted from flag spelling")
	}
}

// drainBytes decodes a whole in-memory b1 stream through a reader
// re-armed with ResetBytes.
func drainBytes(r *BinaryReader, body []byte, mss func([]byte) string) ([]Record, error) {
	r.ResetBytes(body, mss, nil)
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// TestBinaryResetBytes holds the byte-window decode to the streaming
// one: one zero-value reader, re-armed over body after body, yields
// exactly the records NewBinaryReader does, at every truncation fails
// when the stream reader fails, never writes to the body it reads from,
// hands the canonicaliser views it may intern, and — warm — decodes a
// body of known paths allocating nothing but the header line.
func TestBinaryResetBytes(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(5)), 300)
	full := encodeBinary(t, recs)
	pristine := append([]byte(nil), full...)
	want, err := ReadAll(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}

	var r BinaryReader // the zero value: ResetBytes makes it ready
	in := NewInterner()
	got, err := drainBytes(&r, full, in.Canonical)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("byte-window decode: %d records, err %v; stream decode: %d records", len(got), err, len(want))
	}
	for cut := 0; cut < len(full); cut++ {
		_, wantErr := ReadAll(bytes.NewReader(full[:cut]))
		if _, err := drainBytes(&r, full[:cut], in.Canonical); (err == nil) != (wantErr == nil) {
			t.Fatalf("cut at %d of %d: byte-window error %v, stream error %v", cut, len(full), err, wantErr)
		}
	}
	if got, err = drainBytes(&r, full, nil); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("byte-window decode through the bounded cache: %d records, err %v", len(got), err)
	}
	if !bytes.Equal(full, pristine) {
		t.Fatal("decoding wrote to the body")
	}

	n := 0
	canon := in.Canonical // bound once, as a pooled decoder binds its own
	count := func() {
		r.ResetBytes(full, canon, canon)
		for n = 0; ; n++ {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	}
	count()
	if allocs := testing.AllocsPerRun(20, count); allocs > 1 || n != len(want) {
		t.Fatalf("warm byte-window decode of %d records (want %d) allocates %v times, want 1 (the header line)", n, len(want), allocs)
	}
}
