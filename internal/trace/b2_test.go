package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

// encodeB2 encodes recs with the given records-per-block target,
// deltaing from the first record's start like WriteAllFormat.
func encodeB2(t *testing.T, recs []Record, perBlock int) []byte {
	t.Helper()
	epoch := Epoch
	if len(recs) > 0 {
		epoch = recs[0].Start
	}
	var buf bytes.Buffer
	w := NewB2WriterEpochBlock(&buf, epoch, perBlock)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("encode record %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// b2Fixture is a deterministic multi-block trace: enough records over
// few paths and several same-second runs to exercise every column
// encoding, split into many small blocks.
func b2Fixture(t *testing.T, n, perBlock int) ([]Record, []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	devs := []device.Class{device.ClassDisk, device.ClassSiloTape, device.ClassManualTape, device.ClassOptical}
	recs := make([]Record, n)
	cur := Epoch
	for i := range recs {
		cur = cur.Add(time.Duration(r.Intn(3)) * 40 * time.Second) // ~1/3 share a second
		recs[i] = Record{
			Start:      cur,
			Op:         Op(r.Intn(2)),
			Device:     devs[r.Intn(len(devs))],
			Err:        ErrCode(r.Intn(4)),
			Compressed: r.Intn(2) == 0,
			Startup:    time.Duration(r.Intn(300)) * time.Second,
			Transfer:   time.Duration(r.Intn(90000)) * time.Millisecond,
			Size:       units.Bytes(r.Int63n(64 * units.MB)),
			MSSPath:    "/mss/u" + itoa(r.Intn(7)) + "/f" + itoa(r.Intn(23)),
			LocalPath:  "/tmp/j" + itoa(r.Intn(11)),
			UserID:     uint32(100 + r.Intn(9)),
		}
	}
	return recs, encodeB2(t, recs, perBlock)
}

// requireSameRecords fails on the first field-level difference.
func requireSameRecords(t *testing.T, got, want []Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if !a.Start.Equal(b.Start) || a.Op != b.Op || a.Device != b.Device ||
			a.Err != b.Err || a.Compressed != b.Compressed ||
			a.Startup != b.Startup || a.Transfer != b.Transfer ||
			a.Size != b.Size || a.UserID != b.UserID ||
			a.MSSPath != b.MSSPath || a.LocalPath != b.LocalPath {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, a, b)
		}
	}
}

// requireDecoderContract drives one block decoder over every block of
// f, in order, and checks what DecodeInto promises beside the records:
// ids[k] names recs[k].MSSPath in the decoder's table, for error records
// too; the table holds each distinct path once; no decode disturbs an ID
// issued by an earlier one; and each block decode reads exactly one
// block. reads counts f's block reads; want is the file's records in
// order.
func requireDecoderContract(t *testing.T, f *B2File, reads func() int64, want []Record) {
	t.Helper()
	d := f.NewBlockDecoder(NewSharedTable())
	before := reads()
	distinct := map[string]FileID{}
	at := 0
	for i := 0; i < f.NumBlocks(); i++ {
		issued := d.Table().Paths()
		n := int(f.Meta(i).Count)
		recs, ids := make([]Record, n), make([]FileID, n)
		if err := d.DecodeInto(i, recs, ids); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		requireSameRecords(t, recs, want[at:at+n], "DecodeInto")
		at += n
		for k := range recs {
			if got := d.Table().Path(ids[k]); got != recs[k].MSSPath {
				t.Fatalf("block %d record %d: ids names %q, record says %q", i, k, got, recs[k].MSSPath)
			}
			if id, ok := distinct[recs[k].MSSPath]; ok && id != ids[k] {
				t.Fatalf("block %d record %d: %q issued as %d and as %d", i, k, recs[k].MSSPath, id, ids[k])
			}
			distinct[recs[k].MSSPath] = ids[k]
		}
		for id, p := range issued {
			if got := d.Table().Path(FileID(id)); got != p {
				t.Fatalf("block %d moved ID %d from %q to %q", i, id, p, got)
			}
		}
		if got := reads() - before; got != int64(i+1) {
			t.Fatalf("after block %d the block reads moved by %d, want one read per block", i, got)
		}
	}
	if d.Table().Len() != len(distinct) {
		t.Fatalf("table holds %d paths for %d distinct ones", d.Table().Len(), len(distinct))
	}
}

// resealB2Block applies mutate to block i's body in a copy of enc and
// recomputes the frame checksum, so the damage reaches the block parser
// instead of tripping the CRC. The body's length must not change.
func resealB2Block(t *testing.T, enc []byte, i int, mutate func(body []byte)) []byte {
	t.Helper()
	f, err := OpenB2File(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	e := f.entries[i]
	out := append([]byte(nil), enc...)
	frame := out[e.offset : e.offset+e.frameLen]
	body, err := openB2Frame(frame, b2BlockTag)
	if err != nil {
		t.Fatal(err)
	}
	mutate(body)
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], Checksum(body))
	return out
}

// TestB2DecoderRejectedBlock pins what a rejected block may and may not
// do to its decoder's path table. A block that fails after its checksum
// verified — here the last local-path reference points past the
// dictionary, which only the column decode notices — has already had its
// MSS dictionary interned: the table may have grown (strays no record
// was issued for), but it is append-only, so every ID issued before
// still names its path, the failed decode is not counted, and the
// decoder goes on decoding later blocks under the same contract. The
// analysis paths fail the whole run on such an error
// (core.TestB2AnalyzeRejectsResealedBlock).
func TestB2DecoderRejectedBlock(t *testing.T) {
	_, enc := b2Fixture(t, 60, 10)
	bad := resealB2Block(t, enc, 2, func(body []byte) { body[len(body)-1] = 0x7f })
	f, reads := openCounted(t, bad)
	d := f.NewBlockDecoder(NewSharedTable())
	recs, ids := make([]Record, 10), make([]FileID, 10)
	for i := 0; i < 2; i++ {
		if err := d.DecodeInto(i, recs, ids); err != nil {
			t.Fatal(err)
		}
	}
	issued := d.Table().Paths()
	err := d.DecodeInto(2, recs, ids)
	if err == nil || !strings.Contains(err.Error(), "local path ref") {
		t.Fatalf("resealed block: err = %v, want the column decode's reference error", err)
	}
	if reads() != 3 {
		t.Fatalf("%d block reads for two decodes and a rejected block, want 3", reads())
	}
	if d.Table().Len() < len(issued) {
		t.Fatalf("table shrank from %d to %d paths", len(issued), d.Table().Len())
	}
	for id, p := range issued {
		if got := d.Table().Path(FileID(id)); got != p {
			t.Fatalf("rejected block moved ID %d from %q to %q", id, p, got)
		}
	}
	if err := d.DecodeInto(3, recs, ids); err != nil {
		t.Fatal(err)
	}
	for k := range recs {
		if got := d.Table().Path(ids[k]); got != recs[k].MSSPath {
			t.Fatalf("after the rejected block, record %d: ids names %q, record says %q", k, got, recs[k].MSSPath)
		}
	}
}

// onlyReader hides every method of its reader but Read, as a pipe does,
// so a b2 input behind it is read into memory before it opens.
type onlyReader struct{ io.Reader }

// readB2Both reads data through the b2 reader in place (a *bytes.Reader)
// and as a pipe (onlyReader), requiring both to accept it and agree
// record for record.
func readB2Both(t *testing.T, data []byte) []Record {
	t.Helper()
	var out [2][]Record
	for i, r := range []io.Reader{bytes.NewReader(data), onlyReader{bytes.NewReader(data)}} {
		var err error
		if out[i], err = collectB2(r); err != nil {
			t.Fatalf("%T: %v", r, err)
		}
	}
	requireSameRecords(t, out[1], out[0], "pipe vs in place")
	return out[0]
}

func TestB2RoundTrip(t *testing.T) {
	recs := sampleRecords()
	// The second epoch predates 1970: its header carries a negative
	// Unix time, which the one header parser takes like any other.
	for _, epoch := range []time.Time{recs[0].Start, time.Date(1965, 3, 1, 0, 0, 0, 0, time.UTC)} {
		var buf bytes.Buffer
		w := NewB2WriterEpoch(&buf, epoch)
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got := readB2Both(t, buf.Bytes())
		requireSameRecords(t, got, recs, "b2 round trip from "+epoch.Format(time.DateOnly))
		f, err := OpenB2File(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		if !f.Epoch().Equal(epoch) {
			t.Fatalf("Epoch() = %v, want %v", f.Epoch(), epoch)
		}

		// b2 carries the same quantisation as b1: transcoding b2 → b1
		// must equal encoding the originals as b1 directly.
		var viaB2, direct bytes.Buffer
		if err := WriteAllFormat(&viaB2, got, FormatBinary); err != nil {
			t.Fatal(err)
		}
		if err := WriteAllFormat(&direct, recs, FormatBinary); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaB2.Bytes(), direct.Bytes()) {
			t.Fatal("b2-decoded records do not b1-encode identically to the originals")
		}
	}
}

func TestB2MultiBlock(t *testing.T) {
	recs, enc := b2Fixture(t, 100, 7)
	requireSameRecords(t, readB2Both(t, enc), recs, "sequential")

	f, reads := openCounted(t, enc)
	if f.NumBlocks() != 15 { // ceil(100/7)
		t.Fatalf("NumBlocks = %d, want 15", f.NumBlocks())
	}
	if f.NumRecords() != 100 {
		t.Fatalf("NumRecords = %d, want 100", f.NumRecords())
	}
	if reads() != 0 {
		t.Fatalf("opening the file read %d blocks; planning must read none", reads())
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := Collect(f.Stream(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameRecords(t, got, recs, "parallel")
	}
	if reads() != 3*15 {
		t.Fatalf("%d block reads after three full reads of 15 blocks", reads())
	}
	requireDecoderContract(t, f, reads, recs)

	// Block metadata matches the records without decoding.
	var total int64
	prevEnd := time.Time{}
	for i := 0; i < f.NumBlocks(); i++ {
		m := f.Meta(i)
		total += m.Count
		if m.End.Before(m.Base) || m.Base.Before(prevEnd) {
			t.Fatalf("block %d range [%v,%v] disordered (prev end %v)", i, m.Base, m.End, prevEnd)
		}
		prevEnd = m.End
	}
	if total != 100 {
		t.Fatalf("index counts sum to %d", total)
	}
}

func TestB2SingleBlockDecode(t *testing.T) {
	recs, enc := b2Fixture(t, 60, 10)
	f, reads := openCounted(t, enc)
	d := f.NewBlockDecoder(NewSharedTable())
	// Decode only block 3; exactly its records come back and exactly one
	// block is read.
	got, err := d.Decode(3)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, got, recs[30:40], "block 3")
	if reads() != 1 {
		t.Fatalf("%d block reads, want 1", reads())
	}
	if err := d.DecodeInto(2, make([]Record, 3), nil); err == nil {
		t.Fatal("wrong-sized dst must be rejected")
	}
	if err := d.DecodeInto(2, make([]Record, 10), make([]FileID, 9)); err == nil {
		t.Fatal("wrong-sized ids must be rejected")
	}
}

func TestB2EmptyTrace(t *testing.T) {
	enc := encodeB2(t, nil, DefaultB2BlockRecords)
	if len(enc) != 0 {
		t.Fatalf("empty trace encodes to %d bytes, want 0", len(enc))
	}
	if got := readB2Both(t, nil); len(got) != 0 {
		t.Fatalf("empty stream decoded %d records", len(got))
	}
	if _, err := OpenB2File(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("OpenB2File on empty input must report it is not a b2 file")
	}
}

func TestB2WriterRejects(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewB2WriterEpoch(&buf, Epoch)
	if err := w.Write(&recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[0]); err == nil {
		t.Error("out-of-order record must be rejected")
	}
	bad := recs[0]
	bad.MSSPath = "has space"
	if err := w.Write(&bad); err == nil {
		t.Error("invalid path must be rejected")
	}
	bad = recs[0]
	bad.Start = Epoch.Add(-time.Hour)
	if err := NewB2WriterEpoch(&bytes.Buffer{}, Epoch).Write(&bad); err == nil {
		t.Error("pre-epoch record must be rejected")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[2]); err == nil {
		t.Error("Write after Flush must be rejected")
	}
	if err := w.Flush(); err != nil {
		t.Errorf("second Flush: %v", err)
	}

	// Ordering is enforced across a block boundary too.
	w2 := NewB2WriterEpochBlock(&bytes.Buffer{}, Epoch, 1)
	if err := w2.Write(&recs[1]); err != nil {
		t.Fatal(err)
	}
	early := recs[1]
	early.Start = recs[1].Start.Add(-10 * time.Second)
	if err := w2.Write(&early); err == nil {
		t.Error("cross-block out-of-order record must be rejected")
	}
}

// decodeB2All reads data through OpenStream both ways the b2 reader
// opens an input — in place over a *bytes.Reader, and into memory first
// behind onlyReader — and returns nil if either decoded it cleanly; the
// torture suites require both to error. Its error is the in-place one.
func decodeB2All(data []byte) error {
	var first error
	for _, r := range []io.Reader{bytes.NewReader(data), onlyReader{bytes.NewReader(data)}} {
		s, err := OpenStream(r)
		if err == nil {
			_, err = Collect(s)
		}
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}

func TestB2TruncationTorture(t *testing.T) {
	_, enc := b2Fixture(t, 24, 5)
	for cut := 1; cut < len(enc); cut++ {
		if err := decodeB2All(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", cut, len(enc))
		}
	}
}

func TestB2BitFlipTorture(t *testing.T) {
	_, enc := b2Fixture(t, 24, 5)
	mut := make([]byte, len(enc))
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			copy(mut, enc)
			mut[i] ^= 1 << bit
			if err := decodeB2All(mut); err == nil {
				t.Fatalf("flipping bit %d of byte %d decoded cleanly", bit, i)
			}
		}
	}
}

// reindexB2 rebuilds data's trailing index from mutated entries,
// recomputing the frame CRC and footer, so index-validation tests reach
// the index parser instead of tripping the checksum.
func reindexB2(t *testing.T, data []byte, mutate func([]b2IndexEntry) []b2IndexEntry) []byte {
	t.Helper()
	if len(data) < b2FooterLen {
		t.Fatal("fixture too short")
	}
	indexOff := int64(binary.LittleEndian.Uint64(data[len(data)-b2FooterLen:]))
	body, err := openB2Frame(data[indexOff:len(data)-b2FooterLen], b2IndexTag)
	if err != nil {
		t.Fatalf("fixture index frame: %v", err)
	}
	var c WireReader
	c.ResetBytes(body)
	epochSec, err := c.Svarint("epoch")
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Uvarint("count", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]b2IndexEntry, n)
	for i := range entries {
		e := &entries[i]
		for _, dst := range []*int64{&e.offset, &e.frameLen, &e.count, &e.base, &e.span} {
			v, err := c.Uvarint("field", 1<<62)
			if err != nil {
				t.Fatal(err)
			}
			*dst = int64(v)
		}
		for col := range e.colSizes {
			v, err := c.Uvarint("col", 1<<62)
			if err != nil {
				t.Fatal(err)
			}
			e.colSizes[col] = int64(v)
		}
	}
	newBody := appendB2IndexBody(nil, epochSec, mutate(entries))
	out := append([]byte(nil), data[:indexOff]...)
	out = append(out, b2IndexTag)
	out = binary.AppendUvarint(out, uint64(len(newBody)))
	out = append(out, newBody...)
	out = binary.LittleEndian.AppendUint32(out, Checksum(newBody))
	var foot [b2FooterLen]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(indexOff))
	copy(foot[8:], b2Magic)
	return append(out, foot[:]...)
}

func TestB2MalformedIndexTorture(t *testing.T) {
	_, enc := b2Fixture(t, 24, 5)
	cases := map[string]func([]b2IndexEntry) []b2IndexEntry{
		"record count off by one": func(es []b2IndexEntry) []b2IndexEntry {
			es[1].count++
			es[1].colSizes[b2ColFlags]++ // keep the flags-column invariant so the count check itself fires
			return es
		},
		"flags column size mismatch": func(es []b2IndexEntry) []b2IndexEntry {
			es[1].colSizes[b2ColFlags]++
			return es
		},
		"other column size mismatch": func(es []b2IndexEntry) []b2IndexEntry {
			es[2].colSizes[b2ColSize]++
			return es
		},
		"overlapping blocks": func(es []b2IndexEntry) []b2IndexEntry {
			es[2].offset -= 3
			return es
		},
		"gap between blocks": func(es []b2IndexEntry) []b2IndexEntry {
			es[1].frameLen -= 2
			return es
		},
		"out-of-order time ranges": func(es []b2IndexEntry) []b2IndexEntry {
			es[1].base, es[2].base = es[2].base, es[1].base
			es[1].span, es[2].span = es[2].span, es[1].span
			return es
		},
		"block span shrunk": func(es []b2IndexEntry) []b2IndexEntry {
			if es[0].span == 0 {
				panic("fixture block 0 must span time")
			}
			es[0].span--
			es[1].base-- // keep ordering valid so the span mismatch itself fires
			return es
		},
		"missing last block": func(es []b2IndexEntry) []b2IndexEntry {
			return es[:len(es)-1]
		},
		"no blocks": func(es []b2IndexEntry) []b2IndexEntry {
			return es[:0]
		},
		"zero-count block": func(es []b2IndexEntry) []b2IndexEntry {
			es[3].count = 0
			es[3].colSizes[b2ColFlags] = 0
			return es
		},
	}
	for name, mutate := range cases {
		if err := decodeB2All(reindexB2(t, enc, mutate)); err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}
	// The rebuild helper itself must reproduce a valid file unmutated.
	if err := decodeB2All(reindexB2(t, enc, func(es []b2IndexEntry) []b2IndexEntry { return es })); err != nil {
		t.Fatalf("identity reindex broke the fixture: %v", err)
	}
}

func TestB2MalformedInput(t *testing.T) {
	cases := map[string]string{
		"truncated header":  "#filemig-trace b2 epo",
		"non-numeric epoch": "#filemig-trace b2 epoch=zzz\n",
		"bare header":       "#filemig-trace b2 epoch=0\n", // a started file must close with an index
		"wrong format tag":  "#filemig-trace b9 epoch=0\n",
	}
	for name, in := range cases {
		if err := decodeB2All([]byte(in)); err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}
}

func TestB2ParallelErrorIsDeterministic(t *testing.T) {
	// Corrupt an early block's body; whatever worker order, the stream
	// must report that block's CRC failure (after the records of the
	// blocks before it), at every worker count.
	_, enc := b2Fixture(t, 40, 4)
	f0, err := OpenB2File(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in block 2's body: entry offsets are private, so find
	// it by decoding geometry from the clean file.
	d := f0.NewBlockDecoder(NewSharedTable())
	if _, err := d.Decode(2); err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), enc...)
	mut[f0.entries[2].offset+5] ^= 0x10
	for _, workers := range []int{1, 2, 8} {
		f, err := OpenB2File(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			t.Fatal(err)
		}
		s := f.Stream(workers)
		n := 0
		var gotErr error
		for {
			_, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				gotErr = err
				break
			}
			n++
		}
		if gotErr == nil {
			t.Fatalf("workers=%d: corrupt block decoded cleanly", workers)
		}
		if n != 8 { // blocks 0 and 1 hold 4 records each
			t.Fatalf("workers=%d: %d records before the error, want 8", workers, n)
		}
	}
}

func TestB2OpenStreamSniff(t *testing.T) {
	recs, enc := b2Fixture(t, 12, 4)
	s, err := OpenStream(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, got, recs, "sniffed")
	// A seekable reader already past its first byte is not read in
	// place: the trace starts at its offset, not at byte 0.
	r := bytes.NewReader(append([]byte("junk"), enc...))
	if _, err := r.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenStream(r); err != nil {
		t.Fatal(err)
	}
	if got, err = Collect(s); err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, got, recs, "sniffed after an offset")
	if _, err := ParseFormat("b2"); err != nil {
		t.Fatal(err)
	}
	if FormatB2.String() != "b2" {
		t.Fatalf("FormatB2.String() = %q", FormatB2.String())
	}
}

// TestTakeB2File pins when a b2 stream hands over its file: from every
// opener, in place or over a pipe, while no record has been read, and
// never twice. A taken stream is at its end; a stream a record was read
// from keeps its place, and any other stream has no file to give.
func TestTakeB2File(t *testing.T) {
	recs, enc := b2Fixture(t, 12, 4)
	open := map[string]func() (Stream, error){
		"OpenStream":      func() (Stream, error) { return OpenStream(bytes.NewReader(enc)) },
		"OpenStream pipe": func() (Stream, error) { return OpenStream(onlyReader{bytes.NewReader(enc)}) },
		"OpenStreamFlag":  func() (Stream, error) { return OpenStreamFlag(bytes.NewReader(enc), "b2") },
		"NewFormatReader": func() (Stream, error) { return NewFormatReader(onlyReader{bytes.NewReader(enc)}, FormatB2) },
	}
	for name, openFn := range open {
		s, err := openFn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := TakeB2File(s)
		if f == nil || f.NumRecords() != int64(len(recs)) {
			t.Fatalf("%s: TakeB2File = %v, want the file of %d records", name, f, len(recs))
		}
		got, err := Collect(f.Stream(1))
		if err != nil {
			t.Fatalf("%s: reading the taken file: %v", name, err)
		}
		requireSameRecords(t, got, recs, name+" taken file")
		if TakeB2File(s) != nil {
			t.Fatalf("%s: the file was handed over twice", name)
		}
		if _, err := s.Next(); err != io.EOF {
			t.Fatalf("%s: Next after the take = %v, want io.EOF", name, err)
		}
	}

	s, err := OpenStream(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if TakeB2File(s) != nil {
		t.Fatal("TakeB2File handed over a stream a record was read from")
	}
	rest, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRecords(t, append([]Record{first}, rest...), recs, "read on after a refused take")

	for _, s := range []Stream{SliceStream(recs), emptyStream{}} {
		if TakeB2File(s) != nil {
			t.Fatalf("%T handed over a b2 file", s)
		}
	}
}

// TestB2DecodeForAnalysis holds the block decoder's analysis form to
// DecodeInto on testdata/mini.b2: every field of every record but
// LocalPath, which it leaves empty, and every FileID. A local dictionary
// entry holding a separator byte, resealed so that the frame checksum
// passes, fails both forms with the same error.
func TestB2DecodeForAnalysis(t *testing.T) {
	enc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "mini.b2"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenB2File(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	full, analysis := f.NewBlockDecoder(NewSharedTable()), f.NewBlockDecoder(NewSharedTable())
	for i := 0; i < f.NumBlocks(); i++ {
		n := int(f.Meta(i).Count)
		want, wantIDs := make([]Record, n), make([]FileID, n)
		got, gotIDs := make([]Record, n), make([]FileID, n)
		if err := full.DecodeInto(i, want, wantIDs); err != nil {
			t.Fatal(err)
		}
		if err := analysis.DecodeForAnalysis(i, got, gotIDs); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if want[k].LocalPath == "" || got[k].LocalPath != "" {
				t.Fatalf("block %d record %d: LocalPath %q from DecodeInto, %q from DecodeForAnalysis",
					i, k, want[k].LocalPath, got[k].LocalPath)
			}
			want[k].LocalPath = ""
		}
		requireSameRecords(t, got, want, "DecodeForAnalysis vs DecodeInto")
		if !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("block %d: FileIDs %v, want %v", i, gotIDs, wantIDs)
		}
	}

	bad := resealB2Block(t, enc, 0, func(body []byte) {
		var blk b2Block
		if err := parseB2Block(body, &blk); err != nil {
			t.Fatal(err)
		}
		blk.localKeys[1][1] = '\t' // a view into body
	})
	if f, err = OpenB2File(bytes.NewReader(bad), int64(len(bad))); err != nil {
		t.Fatal(err)
	}
	n := int(f.Meta(0).Count)
	wantErr := f.NewBlockDecoder(NewSharedTable()).DecodeInto(0, make([]Record, n), nil)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "local dictionary entry 1: bad path") {
		t.Fatalf("DecodeInto of the resealed block: err = %v, want a bad local path", wantErr)
	}
	gotErr := f.NewBlockDecoder(NewSharedTable()).DecodeForAnalysis(0, make([]Record, n), make([]FileID, n))
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("DecodeForAnalysis of the resealed block: err = %v, want %v", gotErr, wantErr)
	}
}
