package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

// Regression coverage for diagnosable corruption errors: a corrupt
// mid-stream b1 or b2 input must fail with the offending byte offset in
// the message, not just a record or block index, so daemon-side ingest
// failures (and mssanalyze -stream on a damaged file) point at the
// bytes to look at.

// offsetFixture encodes a handful of b1 records with distinctive paths
// long enough that corruption lands mid-record, not just on a boundary.
func offsetFixture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriterEpoch(&buf, Epoch)
	base := Epoch.Add(time.Hour)
	for i := 0; i < 20; i++ {
		r := Record{
			Start:     base.Add(time.Duration(i) * time.Minute),
			Op:        Read,
			Device:    device.ClassDisk,
			Startup:   2 * time.Second,
			Transfer:  1500 * time.Millisecond,
			Size:      units.Bytes(1 << 20),
			UserID:    42,
			MSSPath:   "/mss/projects/climate/run-00/snapshot-file-number-longish",
			LocalPath: "/tmp/scratch/climate/run-00/snapshot-file-number-longish",
		}
		if i%2 == 1 {
			r.Op = Write
		}
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain reads records until the stream errors or ends.
func drain(enc []byte) error {
	r := NewBinaryReader(bytes.NewReader(enc))
	for {
		if _, err := r.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// TestBinaryReaderTruncationOffset cuts the stream mid-record at every
// byte position and expects either a clean record-boundary EOF or an
// error naming a byte offset no later than the cut.
func TestBinaryReaderTruncationOffset(t *testing.T) {
	enc := offsetFixture(t)
	sawOffset := false
	for cut := len(enc) / 2; cut < len(enc); cut++ {
		err := drain(enc[:cut])
		if err == nil {
			continue // cut landed exactly on a record boundary
		}
		if !strings.Contains(err.Error(), "at byte offset") {
			t.Fatalf("truncation at %d: error lacks a byte offset: %v", cut, err)
		}
		sawOffset = true
	}
	if !sawOffset {
		t.Fatal("no truncation produced a mid-record error")
	}
}

// TestBinaryReaderBitFlipOffset flips one bit at a time through the
// encoded stream; every detected corruption must carry the byte offset
// of the record it broke.
func TestBinaryReaderBitFlipOffset(t *testing.T) {
	enc := offsetFixture(t)
	detected := 0
	for i := len(enc) / 2; i < len(enc); i++ {
		bad := append([]byte{}, enc...)
		bad[i] ^= 0x80
		err := drain(bad)
		if err == nil {
			continue // some flips decode to different valid content
		}
		if !strings.Contains(err.Error(), "at byte offset") {
			t.Fatalf("bit flip at %d: error lacks a byte offset: %v", i, err)
		}
		detected++
	}
	if detected == 0 {
		t.Fatal("no bit flip was ever detected")
	}
}

// TestB2DecodeOffset corrupts a b2 block body and expects the decode
// error to carry the block's byte offset from the index.
func TestB2DecodeOffset(t *testing.T) {
	var buf bytes.Buffer
	w := NewB2WriterEpoch(&buf, Epoch)
	base := Epoch.Add(time.Hour)
	for i := 0; i < 50; i++ {
		r := Record{
			Start:   base.Add(time.Duration(i) * time.Minute),
			Op:      Read,
			Device:  device.ClassSiloTape,
			Size:    units.Bytes(4096),
			UserID:  7,
			MSSPath: "/mss/u/a", LocalPath: "/tmp/a",
		}
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	open := func(b []byte) *B2File {
		f, err := OpenB2File(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatalf("OpenB2File: %v", err)
		}
		return f
	}
	f := open(enc)
	if f.NumBlocks() == 0 {
		t.Fatal("fixture encoded no blocks")
	}
	// Flip a byte inside the first block's frame body (past the tag) and
	// decode it: the CRC check must fail and the error must name the
	// block's byte offset.
	bad := append([]byte{}, enc...)
	bad[40] ^= 0x01
	_, err := open(bad).NewBlockDecoder(NewSharedTable()).Decode(0)
	if err == nil {
		t.Fatal("corrupt block decoded cleanly")
	}
	if !strings.Contains(err.Error(), "at byte offset") {
		t.Fatalf("b2 corruption error lacks a byte offset: %v", err)
	}
}
