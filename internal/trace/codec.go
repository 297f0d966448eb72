package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

// The compact ASCII trace format, one line per record:
//
//	#filemig-trace v1 epoch=<unix-seconds>
//	<dt> <src> <dst> <flags> <startup-s> <transfer-ms> <size-bytes> <uid|= > <mss-path> <local-path>
//
// dt is the start time in seconds since the previous record's start time
// (first record: since the epoch) — the delta encoding suggested by
// Samples' Mache and adopted by the paper (§4.2). flags packs the
// direction (R/W), compression (C) and error class (Enofile etc.). A uid
// of "=" marks the same-user flag bit. Fields are whitespace-separated;
// paths therefore may not contain whitespace (Validate enforces this).
//
// The full grammar, and the layout of the binary b1 sibling format
// (binary.go), are specified in docs/trace-format.md. ReadAll and
// OpenStream auto-detect which of the two they are given.

const headerPrefix = "#filemig-trace v1 epoch="

// parseHeaderEpoch parses the header line of any trace format (sans
// newline): prefix, then the epoch in signed decimal Unix seconds. what
// names the format in errors ("", "binary ", "b2 ").
func parseHeaderEpoch(line, prefix, what string) (time.Time, error) {
	if !strings.HasPrefix(line, prefix) {
		return time.Time{}, fmt.Errorf("trace: missing %sheader, got %q", what, line)
	}
	sec, err := strconv.ParseInt(line[len(prefix):], 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("trace: bad %sheader epoch: %v", what, err)
	}
	return time.Unix(sec, 0).UTC(), nil
}

// Writer emits records in the compact format. Records must be written in
// non-decreasing start-time order (the delta encoding demands it).
type Writer struct {
	w         *bufio.Writer
	epoch     time.Time
	headerOut bool
	prevStart time.Time
	prevUID   uint32
	prevSet   bool
	count     int64
}

// NewWriterEpoch returns a Writer with an explicit epoch; records must not
// start before it.
func NewWriterEpoch(w io.Writer, epoch time.Time) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), epoch: epoch, prevStart: epoch}
}

// Count reports the number of records written.
func (w *Writer) Count() int64 { return w.count }

// v1FixedMax bounds the bytes of a v1 line besides its two paths: seven
// numeric fields, two device names, the flags and the separators.
const v1FixedMax = 192

// Write encodes one record.
//
//filemig:hotpath
func (w *Writer) Write(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if !w.headerOut {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	dt := int64(r.Start.Sub(w.prevStart) / time.Second)
	if dt < 0 {
		return fmt.Errorf("trace: record at %v out of order (previous %v)", r.Start, w.prevStart)
	}
	// The line is appended straight into the buffered writer's free
	// space; making room first keeps the appends from outgrowing it (a
	// line longer than the whole buffer still works, through a copy).
	if w.w.Available() < len(r.MSSPath)+len(r.LocalPath)+v1FixedMax {
		if err := w.w.Flush(); err != nil {
			return err
		}
	}
	b := w.w.AvailableBuffer()
	b = strconv.AppendInt(b, dt, 10)
	b = append(b, ' ')
	b = append(b, r.Source()...)
	b = append(b, ' ')
	b = append(b, r.Destination()...)
	if r.Op == Read {
		b = append(b, " R"...)
	} else {
		b = append(b, " W"...)
	}
	if r.Compressed {
		b = append(b, 'C')
	}
	if r.Err != ErrNone {
		b = append(b, 'E')
		b = append(b, r.Err.String()...)
	}
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Startup/time.Second), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Transfer/time.Millisecond), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.Size), 10)
	if w.prevSet && r.UserID == w.prevUID {
		b = append(b, " ="...)
	} else {
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(r.UserID), 10)
	}
	b = append(b, ' ')
	b = append(b, r.MSSPath...)
	b = append(b, ' ')
	b = append(b, r.LocalPath...)
	b = append(b, '\n')
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	// Reconstructable state must use the *truncated* start time, or deltas
	// drift from what the reader reconstructs.
	w.prevStart = w.prevStart.Add(time.Duration(dt) * time.Second)
	w.prevUID = r.UserID
	w.prevSet = true
	w.count++
	return nil
}

func (w *Writer) writeHeader() error {
	_, err := fmt.Fprintf(w.w, "%s%d\n", headerPrefix, w.epoch.Unix())
	w.headerOut = err == nil
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

func decodeFlags(s []byte, r *Record) error {
	if len(s) == 0 {
		return fmt.Errorf("trace: empty flags")
	}
	switch s[0] {
	case 'R':
		r.Op = Read
	case 'W':
		r.Op = Write
	default:
		return fmt.Errorf("trace: flags %q must start with R or W", s)
	}
	rest := s[1:]
	if len(rest) > 0 && rest[0] == 'C' {
		r.Compressed = true
		rest = rest[1:]
	}
	if len(rest) == 0 {
		r.Err = ErrNone
		return nil
	}
	if rest[0] != 'E' {
		return fmt.Errorf("trace: bad flags suffix %q", rest)
	}
	name := rest[1:]
	for code := ErrNone + 1; int(code) < len(errNames); code++ {
		if errNames[code] == string(name) {
			r.Err = code
			return nil
		}
	}
	return fmt.Errorf("trace: unknown error code %q", name)
}

// Reader decodes the compact format. It streams: each Next call reads one
// line. Like the binary reader, MSS paths are interned and local paths
// pass through a bounded cache, so a repeated path is decoded without
// allocating; the rest of the line is parsed in place from the
// scanner's byte buffer.
type Reader struct {
	s         *bufio.Scanner
	epoch     time.Time
	prevStart time.Time
	prevUID   uint32
	started   bool
	line      int
	in        *Interner
	local     pathCache
}

// NewReader returns a Reader over r with a private path table, which
// derives no directories: nothing reads them from a reader's table. The
// header line is consumed lazily on the first Next.
func NewReader(r io.Reader) *Reader {
	return NewReaderInterned(r, NewFileTable())
}

// NewReaderInterned returns a Reader that canonicalises MSS path fields
// through the given Interner; local paths, which no downstream consumer
// interns, go through a bounded cache instead, so the interner's memory
// tracks distinct MSS paths only.
func NewReaderInterned(r io.Reader, in *Interner) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1<<16), 1<<20)
	return &Reader{s: s, in: in}
}

// Next decodes the next record. It returns io.EOF when the stream ends.
func (r *Reader) Next() (Record, error) {
	if !r.started {
		if !r.s.Scan() {
			if err := r.s.Err(); err != nil {
				return Record{}, err
			}
			return Record{}, io.EOF
		}
		r.line++
		epoch, err := parseHeaderEpoch(r.s.Text(), headerPrefix, "")
		if err != nil {
			return Record{}, err
		}
		r.epoch, r.prevStart = epoch, epoch
		r.started = true
	}
	if !r.s.Scan() {
		if err := r.s.Err(); err != nil {
			return Record{}, err
		}
		return Record{}, io.EOF
	}
	r.line++
	return r.parseLine(r.s.Bytes())
}

// splitFields cuts a line on runs of spaces and tabs into at most
// len(out)+1 fields without allocating; the extra slot detection lets the
// caller reject over-long lines. It returns the field count.
func splitFields(line []byte, out *[10][]byte) int {
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '\r' {
			j++
		}
		if n == len(out) {
			return n + 1 // too many fields; exact surplus count is irrelevant
		}
		out[n] = line[i:j]
		n++
		i = j
	}
	return n
}

// parseUint parses a non-negative decimal integer from b, rejecting
// empty input, non-digits and values above max.
func parseUint(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func (r *Reader) parseLine(line []byte) (Record, error) {
	var f [10][]byte
	if n := splitFields(line, &f); n != 10 {
		if n > 10 { // splitFields stops counting at the first surplus field
			return Record{}, fmt.Errorf("trace: line %d: more than 10 fields, want 10", r.line)
		}
		return Record{}, fmt.Errorf("trace: line %d: %d fields, want 10", r.line, n)
	}
	var rec Record
	// Duration fields share the binary codec's wire bounds, so a huge
	// delta fails loudly instead of wrapping time.Duration.
	dt, ok := parseUint(f[0], maxWireSeconds)
	if !ok {
		return Record{}, fmt.Errorf("trace: line %d: bad delta %q", r.line, f[0])
	}
	rec.Start = r.prevStart.Add(time.Duration(dt) * time.Second)
	if err := decodeFlags(f[3], &rec); err != nil {
		return Record{}, fmt.Errorf("trace: line %d: %v", r.line, err)
	}
	devName := f[1]
	if rec.Op == Write {
		devName = f[2]
	}
	cls, ok := device.ParseClassBytes(devName)
	if !ok {
		return Record{}, fmt.Errorf("trace: line %d: device: unknown class %q", r.line, devName)
	}
	rec.Device = cls
	startup, ok := parseUint(f[4], maxWireSeconds)
	if !ok {
		return Record{}, fmt.Errorf("trace: line %d: bad startup %q", r.line, f[4])
	}
	rec.Startup = time.Duration(startup) * time.Second
	transfer, ok := parseUint(f[5], maxWireMillis)
	if !ok {
		return Record{}, fmt.Errorf("trace: line %d: bad transfer %q", r.line, f[5])
	}
	rec.Transfer = time.Duration(transfer) * time.Millisecond
	size, ok := parseUint(f[6], math.MaxInt64)
	if !ok {
		return Record{}, fmt.Errorf("trace: line %d: bad size %q", r.line, f[6])
	}
	rec.Size = units.Bytes(size)
	if len(f[7]) == 1 && f[7][0] == '=' {
		rec.UserID = r.prevUID
	} else {
		uid, ok := parseUint(f[7], 1<<32-1)
		if !ok {
			return Record{}, fmt.Errorf("trace: line %d: bad uid %q", r.line, f[7])
		}
		rec.UserID = uint32(uid)
	}
	rec.MSSPath = r.in.Canonical(f[8])
	rec.LocalPath = r.local.canonical(f[9])
	r.prevStart = rec.Start
	r.prevUID = rec.UserID
	return rec, nil
}

// ReadAll decodes every record from r, auto-detecting the wire format
// (ASCII v1 or binary b1) from the header.
func ReadAll(r io.Reader) ([]Record, error) {
	s, err := OpenStream(r)
	if err != nil {
		return nil, err
	}
	return Collect(s)
}
