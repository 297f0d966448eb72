package trace

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// Wire-format selection and auto-detection. Both formats announce
// themselves with a one-line ASCII header ("#filemig-trace v1 ..." or
// "#filemig-trace b1 ..."), so readers can sniff the format without any
// out-of-band signal; see docs/trace-format.md.

// Format identifies a trace wire format.
type Format int

// The three wire formats: the human-readable ASCII v1 codec, the
// compact record-at-a-time binary b1 codec, and the columnar block b2
// codec. All are loss-free transcodings of each other.
const (
	FormatASCII Format = iota
	FormatBinary
	FormatB2
)

// String names the format the way the -format flags spell it.
func (f Format) String() string {
	switch f {
	case FormatASCII:
		return "ascii"
	case FormatBinary:
		return "binary"
	case FormatB2:
		return "b2"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// ParseFormat parses a -format flag value: "ascii"/"v1",
// "binary"/"b1", or "b2"/"block".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "ascii", "v1", "text":
		return FormatASCII, nil
	case "binary", "b1", "bin":
		return FormatBinary, nil
	case "b2", "block", "columnar":
		return FormatB2, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want ascii, binary, or b2)", s)
}

// NewFormatWriterEpoch returns the codec writer for the given format with
// an explicit epoch.
func NewFormatWriterEpoch(w io.Writer, f Format, epoch time.Time) FlushSink {
	switch f {
	case FormatBinary:
		return NewBinaryWriterEpoch(w, epoch)
	case FormatB2:
		return NewB2WriterEpoch(w, epoch)
	}
	return NewWriterEpoch(w, epoch)
}

// sniffLen covers "#filemig-trace XX" — enough of the header line to tell
// the two formats apart.
const sniffLen = len(headerPrefix) - len(" epoch=")

// SnapshotHeader is the header line (sans newline) of the s1 analysis
// snapshot format (internal/core, docs/snapshots.md). It lives here so
// trace readers can tell a snapshot from a trace and point the user at
// the snapshot tooling instead of failing with a generic header error.
const SnapshotHeader = "#filemig-snapshot s1"

// emptyStream is what OpenStream returns for zero-byte input: a stream
// that is immediately at io.EOF, matching the ASCII Reader's tolerance
// for empty traces.
type emptyStream struct{}

// Next reports the end of the (empty) stream.
func (emptyStream) Next() (Record, error) { return Record{}, io.EOF }

// OpenStream sniffs the header of an encoded trace and returns the
// matching codec reader as a Stream. Zero-byte input yields an empty
// stream; an unrecognised header is an error. A b2 trace is opened
// through its block index (OpenB2File) — in place when r is a seekable
// io.ReaderAt at its start, such as a regular *os.File or a
// *bytes.Reader, else after reading r into memory — so a malformed one
// fails here rather than part way through.
func OpenStream(r io.Reader) (Stream, error) {
	at, size := readerAtStart(r) // before the sniff moves r's offset
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(SnapshotHeader))
	if err == io.EOF && len(head) == 0 {
		return emptyStream{}, nil
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniffing format: %v", err)
	}
	f, ferr := SniffFormat(head)
	if ferr != nil {
		return nil, ferr
	}
	switch f {
	case FormatBinary:
		return NewBinaryReader(br), nil
	case FormatB2:
		return openB2Stream(at, size, br)
	}
	return NewReader(br), nil
}

// readerAtStart returns r as an io.ReaderAt with its size when r can be
// read in place: it seeks and sits at offset 0. It returns nil for
// anything else — a pipe, a partly consumed file, a plain io.Reader —
// and leaves r's offset where it found it.
func readerAtStart(r io.Reader) (io.ReaderAt, int64) {
	rs, ok := r.(interface {
		io.ReaderAt
		io.Seeker
	})
	if !ok {
		return nil, 0
	}
	if off, err := rs.Seek(0, io.SeekCurrent); err != nil || off != 0 {
		return nil, 0
	}
	size, err := rs.Seek(0, io.SeekEnd)
	if _, rerr := rs.Seek(0, io.SeekStart); err != nil || rerr != nil {
		return nil, 0
	}
	return rs, size
}

// SniffFormat classifies an encoded trace by the first bytes of its
// header line — the first len(SnapshotHeader) bytes, or all there are
// of a shorter input. OpenStream peeks them off a reader; a caller
// already holding the whole body passes it as is.
func SniffFormat(head []byte) (Format, error) {
	if len(head) > len(SnapshotHeader) {
		head = head[:len(SnapshotHeader)] // keeps the error messages to the header
	}
	const common = "#filemig-trace "
	if len(head) >= len(SnapshotHeader) && string(head[:len(SnapshotHeader)]) == SnapshotHeader {
		return 0, fmt.Errorf("trace: input is an s1 analysis snapshot, not a trace; load it with mssanalyze merge (or core.MergeSnapshots)")
	}
	if len(head) < sniffLen || string(head[:len(common)]) != common {
		return 0, fmt.Errorf("trace: unrecognised header %q", head)
	}
	switch string(head[len(common):sniffLen]) {
	case "v1":
		return FormatASCII, nil
	case "b1":
		return FormatBinary, nil
	case "b2":
		return FormatB2, nil
	}
	return 0, fmt.Errorf("trace: unrecognised trace version in header %q", head)
}

// NewFormatReader returns the codec reader for a known format as a
// Stream, without sniffing the header. A b2 input is opened as in
// OpenStream, so its open failure is the error returned here; the other
// codecs report malformed input from Next.
func NewFormatReader(r io.Reader, f Format) (Stream, error) {
	switch f {
	case FormatBinary:
		return NewBinaryReader(r), nil
	case FormatB2:
		at, size := readerAtStart(r)
		return openB2Stream(at, size, r)
	}
	return NewReader(r), nil
}

// OpenStreamFlag resolves a -format flag value into a record Stream:
// "auto" sniffs the header, anything else names a codec (ParseFormat
// spellings). It backs the -format flag of mssanalyze and msssim.
func OpenStreamFlag(r io.Reader, flag string) (Stream, error) {
	if flag == "auto" {
		return OpenStream(r)
	}
	f, err := ParseFormat(flag)
	if err != nil {
		return nil, err
	}
	return NewFormatReader(r, f)
}

// WriteAllFormat encodes every record to w in the given format and
// flushes. The epoch is the first record's start time.
func WriteAllFormat(w io.Writer, recs []Record, f Format) error {
	epoch := Epoch
	if len(recs) > 0 {
		epoch = recs[0].Start
	}
	tw := NewFormatWriterEpoch(w, f, epoch)
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}
