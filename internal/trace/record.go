// Package trace defines the file-migration trace format of the paper's
// §4.2 (Table 2) and implements both directions of the paper's collection
// pipeline: the verbose human-readable MSS "system log" (§4.1) and the
// compact machine-readable trace it is condensed into, with start
// times delta-encoded and a same-user flag bit, exactly as the paper
// describes (times in seconds, transfer durations in milliseconds).
//
// Two interchangeable wire formats carry the compact trace — ASCII v1
// and the varint binary b1 — auto-detected on read (OpenStream, ReadAll)
// and specified in docs/trace-format.md. The Stream and Sink interfaces
// move records through the pipeline one at a time, so traces larger than
// memory flow from codec readers through filters into the analysis
// without ever materializing as a slice.
package trace

import (
	"errors"
	"fmt"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

// Op is the direction of a transfer between the Cray and the MSS.
type Op int

// Transfer directions. Reads move data MSS→Cray (UNICOS iread); writes move
// Cray→MSS (lwrite).
const (
	Read Op = iota
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// ErrCode classifies failed requests. The paper found 4.76% of references
// had errors, dominated by requests for files that did not exist (§5.1),
// and excluded them from analysis.
type ErrCode int

// Error codes carried in the flags field.
const (
	ErrNone       ErrCode = iota
	ErrNoFile             // requested file never existed (the common case)
	ErrMedia              // media error during transfer
	ErrTerminated         // request terminated prematurely
)

// errNames spells each ErrCode as it appears in the flags field. A
// dense slice rather than a map: the codec scans it when parsing, and
// slice order is code order, not random map order.
var errNames = [...]string{
	ErrNone:       "",
	ErrNoFile:     "nofile",
	ErrMedia:      "media",
	ErrTerminated: "terminated",
}

// String names the error code; ErrNone is the empty string.
func (e ErrCode) String() string {
	if e >= 0 && int(e) < len(errNames) {
		return errNames[e]
	}
	return fmt.Sprintf("err(%d)", int(e))
}

// Record is one trace record: a single explicit MSS request from the Cray.
// It carries every Table 2 field. Startup latency has one-second
// resolution and transfer time one-millisecond resolution, the precisions
// available from the original system logs.
type Record struct {
	Start      time.Time     // wall-clock start of the request
	Op         Op            // read or write (flag field)
	Device     device.Class  // MSS device holding the data (source for reads, destination for writes)
	Err        ErrCode       // error information (flag field)
	Compressed bool          // compression information (flag field)
	Startup    time.Duration // latency to first byte
	Transfer   time.Duration // data transfer duration
	Size       units.Bytes   // file size in bytes
	MSSPath    string        // file name on the MSS
	LocalPath  string        // file name on the Cray
	UserID     uint32        // requesting user
}

// Source reports the Table 2 "source" field: the device data came from.
func (r *Record) Source() string {
	if r.Op == Read {
		return r.Device.String()
	}
	return "cray"
}

// Destination reports the Table 2 "destination" field.
func (r *Record) Destination() string {
	if r.Op == Read {
		return "cray"
	}
	return r.Device.String()
}

// OK reports whether the request completed without error; the paper's
// analysis only admits OK records.
func (r *Record) OK() bool { return r.Err == ErrNone }

// Validate checks the invariants the codec relies on.
func (r *Record) Validate() error {
	switch {
	case r.Start.IsZero():
		return errors.New("trace: record has zero start time")
	case r.Size < 0:
		return fmt.Errorf("trace: negative size %d", r.Size)
	case r.Startup < 0 || r.Transfer < 0:
		return fmt.Errorf("trace: negative duration (startup %v, transfer %v)", r.Startup, r.Transfer)
	case !validPath(r.MSSPath):
		return fmt.Errorf("trace: bad MSS path %q", r.MSSPath)
	case !validPath(r.LocalPath):
		return fmt.Errorf("trace: bad local path %q", r.LocalPath)
	case r.Op != Read && r.Op != Write:
		return fmt.Errorf("trace: bad op %d", int(r.Op))
	}
	switch r.Device {
	case device.ClassDisk, device.ClassSiloTape, device.ClassManualTape, device.ClassOptical:
	default:
		return fmt.Errorf("trace: bad device class %v", r.Device)
	}
	return nil
}

// validPath reports whether a path can be carried by both wire formats:
// non-empty and free of the whitespace bytes the ASCII codec uses as
// field and record separators. Every writer's Validate calls it twice
// per record, so it tests a word of eight bytes at a time; a shorter
// path is padded with '/'. A b2 dictionary entry is checked as bytes,
// before anything is interned.
func validPath[S string | []byte](s S) bool {
	n := len(s)
	if n < 8 {
		w := uint64(0x2f2f2f2f2f2f2f2f)
		for i := 0; i < n; i++ {
			w = w<<8 | uint64(s[i])
		}
		return n > 0 && sepFree(w)
	}
	for i := 0; i < n; i += 8 {
		b := s[min(i, n-8):][:8] // the last word overlaps the one before it
		if !sepFree(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56) {
			return false
		}
	}
	return true
}

// sepFree reports whether no byte of w is ' ', '\t' or '\n'. A byte of w
// equals c exactly when that byte of x = w^(c·0x01…01) is zero, and
// (x-0x01…01)&^x&0x80…80 is non-zero exactly when some byte of x is
// zero: a byte's high bit survives only for a zero byte, and a borrow
// starts only at one, which already answers no.
func sepFree(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	sp, tab, nl := w^(' '*ones), w^('\t'*ones), w^('\n'*ones)
	return ((sp-ones)&^sp|(tab-ones)&^tab|(nl-ones)&^nl)&highs == 0
}

// Epoch is the reference time trace deltas are measured from when a writer
// is created without an explicit epoch: the start of the paper's trace
// period, October 1, 1990 UTC.
var Epoch = time.Date(1990, time.October, 1, 0, 0, 0, 0, time.UTC)
