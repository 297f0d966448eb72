package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The shared wire layer: a buffered varint reader and an append-style
// varint writer used by every binary codec in the repository — the b1
// and b2 trace formats in this package and the s1 analysis-snapshot
// format in internal/core. They carry uvarint integers, length-prefixed
// byte strings, and (for s1) raw little-endian float64 bits, so the
// buffering, refilling, varint bounds checking, and mid-stream EOF
// conversion live here once. A reader comes in two shapes behind one
// set of accessors: a 64 KiB window refilled from an io.Reader (files,
// pipes, the b2 stream reader's section framing), or a window that is
// the caller's byte slice itself (ResetBytes — a request body, a
// checkpoint frame, a b2 section body or one of its columns), which
// copies and refills nothing and so ends every field at the slice's end.
// The b2 writer assembles its sections with encoding/binary appends and
// emits them through a WireWriter.

// WireReader reads varint-framed binary streams. It owns its buffer:
// integer fields decode inline from the buffered window, and byte fields
// are returned as views into it wherever possible, so steady-state
// decoding moves no memory. The zero value is not ready; use
// NewWireReader or ResetBytes.
type WireReader struct {
	src      io.Reader
	buf      []byte // buffered window of the stream
	pos, end int    // unread bytes are buf[pos:end]
	srcErr   error  // sticky source error, surfaced once the window drains
	scratch  []byte // spill for byte fields straddling a window edge
	fetched  int64  // total bytes read from src into the window
}

// NewWireReader returns a WireReader over r with a 64 KiB window.
func NewWireReader(r io.Reader) *WireReader {
	return &WireReader{src: r, buf: make([]byte, 1<<16)}
}

// ResetBytes re-arms the reader over an in-memory stream: the window is
// b itself — nothing is copied, nothing refills, and byte fields come
// back as views into b, which the caller must leave untouched while it
// reads. It makes a zero WireReader ready, so a pooled reader decodes
// body after body without allocating.
func (r *WireReader) ResetBytes(b []byte) {
	*r = WireReader{buf: b, end: len(b), srcErr: io.EOF, fetched: int64(len(b)), scratch: r.scratch}
}

// fill compacts the unread window to the front of the buffer and reads
// more data, reporting whether any arrived. After a false return the
// sticky source error is set — and once it is set nothing more can
// arrive, so the window (which may be a caller's slice) is left alone.
// Like bufio, a reader that repeatedly returns (0, nil) — legal under
// the io.Reader contract — is cut off with io.ErrNoProgress rather than
// spun on forever.
func (r *WireReader) fill() bool {
	if r.srcErr != nil {
		return false
	}
	if r.pos > 0 {
		copy(r.buf, r.buf[r.pos:r.end])
		r.end -= r.pos
		r.pos = 0
	}
	for tries := 0; r.srcErr == nil && r.end < len(r.buf); tries++ {
		if tries >= 100 {
			r.srcErr = io.ErrNoProgress
			break
		}
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		r.fetched += int64(n)
		if err != nil {
			r.srcErr = err
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// Offset reports the stream position of the next unread byte — how many
// bytes of the source have been consumed so far. Codec readers capture
// it at record boundaries so corruption errors can name the offending
// byte offset, not just a record index.
func (r *WireReader) Offset() int64 {
	return r.fetched - int64(r.end-r.pos)
}

// remaining reports the unread bytes in the window: for a ResetBytes
// reader, everything left of the input — what a section decoder's
// trailing-byte checks ask about.
func (r *WireReader) remaining() int { return r.end - r.pos }

// ReadByte returns the next stream byte; at the end of the stream it
// returns the sticky source error (io.EOF for a clean end).
//
//filemig:hotpath
func (r *WireReader) ReadByte() (byte, error) {
	if r.pos >= r.end && !r.fill() {
		return 0, r.srcErr
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// Line consumes one header line up to and including its newline and
// returns it without the newline. A line longer than a refilling window
// is an error; a clean end of input before any byte is io.EOF, and an
// end mid-line is io.ErrUnexpectedEOF.
func (r *WireReader) Line() (string, error) {
	for {
		for i := r.pos; i < r.end; i++ {
			if r.buf[i] == '\n' {
				line := string(r.buf[r.pos:i])
				r.pos = i + 1
				return line, nil
			}
		}
		if r.srcErr == nil && r.end-r.pos >= len(r.buf) {
			return "", fmt.Errorf("header line exceeds %d bytes", len(r.buf))
		}
		if !r.fill() {
			if r.pos == r.end && r.srcErr == io.EOF {
				return "", io.EOF
			}
			if r.srcErr == io.EOF {
				return "", io.ErrUnexpectedEOF
			}
			return "", r.srcErr
		}
	}
}

// Uvarint reads one varint field, converting a mid-record EOF into
// io.ErrUnexpectedEOF and rejecting values above max. The fast path
// decodes inline from the buffered window — no per-byte calls; only a
// varint near the window edge takes the refilling loop.
//
//filemig:hotpath
func (r *WireReader) Uvarint(field string, max uint64) (uint64, error) {
	if r.end-r.pos >= binary.MaxVarintLen64 {
		v, k := binary.Uvarint(r.buf[r.pos:r.end])
		if k <= 0 { // k == 0 impossible with a full varint's worth of bytes
			return 0, fmt.Errorf("%s: varint overflows 64 bits", field)
		}
		r.pos += k
		if v > max {
			return 0, fmt.Errorf("%s %d out of range (max %d)", field, v, max)
		}
		return v, nil
	}
	return r.uvarintSlow(field, max)
}

// uvarintSlow is the byte-at-a-time refilling tail of Uvarint, reached
// only within a varint's length of the window edge.
func (r *WireReader) uvarintSlow(field string, max uint64) (uint64, error) {
	var v uint64
	var s uint
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("%s: %w", field, err)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%s: varint overflows 64 bits", field)
			}
			v |= uint64(b) << s
			break
		}
		if i >= binary.MaxVarintLen64-1 {
			return 0, fmt.Errorf("%s: varint overflows 64 bits", field)
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	if v > max {
		return 0, fmt.Errorf("%s %d out of range (max %d)", field, v, max)
	}
	return v, nil
}

// Svarint reads one zigzag-encoded signed varint field.
func (r *WireReader) Svarint(field string) (int64, error) {
	u, err := r.Uvarint(field, math.MaxUint64)
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

// Fixed reads exactly n bytes, returning a view the caller must copy or
// consume before the next read. n must be at most the window size.
func (r *WireReader) Fixed(field string, n int) ([]byte, error) {
	if n > len(r.buf) {
		return nil, fmt.Errorf("%s: fixed field of %d bytes exceeds the %d-byte window", field, n, len(r.buf))
	}
	for r.end-r.pos < n {
		if !r.fill() {
			err := r.srcErr
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%s: %w", field, err)
		}
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// Bytes reads one length-prefixed byte field of at most max bytes,
// returning a view the caller must copy or canonicalise before the next
// read: a field fully inside the buffered window — the overwhelming
// case — is sliced directly from the buffer with no copy; only a field
// straddling a window edge is gathered through the scratch spill. Both
// labels arrive as literals so the hot path never builds an
// error-message string it will not use.
//
//filemig:hotpath
func (r *WireReader) Bytes(field, lenField string, max uint64) ([]byte, error) {
	n64, err := r.Uvarint(lenField, max)
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if r.end-r.pos >= n {
		b := r.buf[r.pos : r.pos+n]
		r.pos += n
		return b, nil
	}
	if r.srcErr != nil {
		// The stream has ended short of the field (always the case past
		// the end of a byte window): fail before sizing a spill to a
		// length nothing vouches for.
		err := r.srcErr
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%s: %w", field, err)
	}
	if cap(r.scratch) < n {
		r.scratch = make([]byte, n) //lint:hotalloc-ok grows once to the longest field that straddles a window edge
	}
	buf := r.scratch[:n]
	got := copy(buf, r.buf[r.pos:r.end])
	r.pos = r.end
	for got < n {
		if !r.fill() {
			err := r.srcErr
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%s: %w", field, err)
		}
		m := copy(buf[got:], r.buf[r.pos:r.end])
		r.pos += m
		got += m
	}
	return buf, nil
}

// ExpectEOF verifies the stream has ended cleanly; trailing bytes after
// the last field of a format are reported as corruption.
func (r *WireReader) ExpectEOF() error {
	if _, err := r.ReadByte(); err == nil {
		return fmt.Errorf("trailing bytes after final field")
	} else if err != io.EOF {
		return err
	}
	return nil
}

// castagnoli is the module's one CRC-32C (Castagnoli) table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of b: the checksum trailing every b2 section
// body (stored little-endian) and every dist frame payload (stored
// big-endian), so any single corrupted bit inside either is detected
// rather than decoded.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// WireWriter emits varint-framed binary output through a buffered
// writer: the counterpart of WireReader, shared by the b1, b2 and s1
// encoders. Errors are sticky — the first write error is returned by
// every later call and by Flush, so encoders can emit a whole section
// and check once.
type WireWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWireWriter returns a WireWriter over w with a 64 KiB buffer.
func NewWireWriter(w io.Writer) *WireWriter {
	return &WireWriter{w: w, buf: make([]byte, 0, 1<<16)}
}

// Reset re-arms the writer over a new destination, dropping any
// unflushed bytes and the sticky error but keeping the buffer — one
// writer serves any number of outputs written one after another.
func (w *WireWriter) Reset(dst io.Writer) {
	w.w, w.buf, w.err = dst, w.buf[:0], nil
}

// flushIfFull drains the buffer to the underlying writer when it is
// near capacity, keeping appends allocation-free.
func (w *WireWriter) flushIfFull() {
	if len(w.buf) >= cap(w.buf)-16 {
		w.flush()
	}
}

// flush drains the buffer unconditionally.
func (w *WireWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Byte appends one raw byte (flag fields).
func (w *WireWriter) Byte(b byte) {
	w.flushIfFull()
	w.buf = append(w.buf, b)
}

// Uvarint appends one unsigned varint.
func (w *WireWriter) Uvarint(v uint64) {
	w.flushIfFull()
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Svarint appends one zigzag-encoded signed varint.
func (w *WireWriter) Svarint(v int64) {
	w.Uvarint(uint64(v<<1) ^ uint64(v>>63))
}

// Bytes appends one length-prefixed byte field.
func (w *WireWriter) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Raw(b)
}

// String appends one length-prefixed string field.
func (w *WireWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	for len(s) > 0 {
		w.flushIfFull()
		room := cap(w.buf) - len(w.buf)
		if room > len(s) {
			room = len(s)
		}
		w.buf = append(w.buf, s[:room]...)
		s = s[room:]
	}
}

// Raw appends bytes with no length prefix (header lines, pre-framed
// sections).
func (w *WireWriter) Raw(b []byte) {
	for len(b) > 0 {
		w.flushIfFull()
		room := cap(w.buf) - len(w.buf)
		if room > len(b) {
			room = len(b)
		}
		w.buf = append(w.buf, b[:room]...)
		b = b[room:]
	}
}

// Flush drains buffered output and returns the first error any write
// encountered.
func (w *WireWriter) Flush() error {
	w.flush()
	return w.err
}

// Err reports the sticky write error without flushing. Because output
// is buffered, an underlying failure may only surface after the next
// drain; Flush gives the definitive answer.
func (w *WireWriter) Err() error { return w.err }
