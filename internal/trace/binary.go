package trace

import (
	"fmt"
	"io"
	"math"
	"time"

	"filemig/internal/device"
	"filemig/internal/units"
)

// The compact binary trace format ("#filemig-trace b1"), the
// machine-efficient sibling of the ASCII v1 codec in codec.go. Both carry
// exactly the same information at the same quantisation (delta start
// times in whole seconds, startup in seconds, transfer in milliseconds),
// so a trace can be transcoded between them losslessly. The full wire
// layout is specified in docs/trace-format.md; briefly, after a one-line
// ASCII header each record is
//
//	flags(1 byte) dt startup transfer size [uid] mssPath localPath
//
// with every integer a uvarint and paths length-prefixed. The flags byte
// packs direction, compression, error class, device class and the
// same-user bit — the same flag and delta packing the paper used to
// condense its system logs (§4.2), taken one step further than ASCII
// digits allow.

const binaryHeaderPrefix = "#filemig-trace b1 epoch="

// Flag-byte layout (bit 7 is reserved and must be zero).
const (
	binFlagWrite      = 1 << 0
	binFlagCompressed = 1 << 1
	binErrShift       = 2 // bits 2-3: ErrCode
	binDevShift       = 4 // bits 4-5: device class wire code
	binFlagSameUser   = 1 << 6
	binFlagReserved   = 1 << 7
)

// maxBinaryPathLen bounds the length-prefixed path fields; anything larger
// in the wire stream is treated as corruption rather than allocated.
const maxBinaryPathLen = 1 << 16

// Wire codes for device classes are explicit so the format stays stable
// even if the device.Class enum is ever reordered.
var devToWire = map[device.Class]byte{
	device.ClassDisk:       0,
	device.ClassSiloTape:   1,
	device.ClassManualTape: 2,
	device.ClassOptical:    3,
}

var wireToDev = [4]device.Class{
	device.ClassDisk,
	device.ClassSiloTape,
	device.ClassManualTape,
	device.ClassOptical,
}

// BinaryWriter emits records in the binary b1 format through the shared
// WireWriter. Like the ASCII Writer, records must be written in
// non-decreasing start-time order.
type BinaryWriter struct {
	wire      *WireWriter
	epoch     time.Time
	headerOut bool
	prevStart time.Time
	prevUID   uint32
	prevSet   bool
	count     int64
}

// NewBinaryWriterEpoch returns a BinaryWriter with an explicit epoch;
// records must not start before it.
func NewBinaryWriterEpoch(w io.Writer, epoch time.Time) *BinaryWriter {
	return &BinaryWriter{wire: NewWireWriter(w), epoch: epoch, prevStart: epoch}
}

// Count reports the number of records written.
func (w *BinaryWriter) Count() int64 { return w.count }

// Write encodes one record.
func (w *BinaryWriter) Write(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if !w.headerOut {
		w.wire.Raw(fmt.Appendf(nil, "%s%d\n", binaryHeaderPrefix, w.epoch.Unix()))
		w.headerOut = true
	}
	dt := int64(r.Start.Sub(w.prevStart) / time.Second)
	if dt < 0 {
		return fmt.Errorf("trace: record at %v out of order (previous %v)", r.Start, w.prevStart)
	}
	devCode, ok := devToWire[r.Device]
	if !ok {
		return fmt.Errorf("trace: device class %v has no binary wire code", r.Device)
	}
	if r.Err < 0 || r.Err > 3 {
		return fmt.Errorf("trace: error code %d does not fit the binary flags byte", int(r.Err))
	}
	if len(r.MSSPath) > maxBinaryPathLen || len(r.LocalPath) > maxBinaryPathLen {
		return fmt.Errorf("trace: path longer than %d bytes cannot be encoded", maxBinaryPathLen)
	}
	var flags byte
	if r.Op == Write {
		flags |= binFlagWrite
	}
	if r.Compressed {
		flags |= binFlagCompressed
	}
	flags |= byte(r.Err) << binErrShift
	flags |= devCode << binDevShift
	sameUser := w.prevSet && r.UserID == w.prevUID
	if sameUser {
		flags |= binFlagSameUser
	}

	w.wire.Byte(flags)
	w.wire.Uvarint(uint64(dt))
	w.wire.Uvarint(uint64(r.Startup / time.Second))
	w.wire.Uvarint(uint64(r.Transfer / time.Millisecond))
	w.wire.Uvarint(uint64(r.Size))
	if !sameUser {
		w.wire.Uvarint(uint64(r.UserID))
	}
	w.wire.String(r.MSSPath)
	w.wire.String(r.LocalPath)
	if err := w.wire.Err(); err != nil {
		return err
	}
	// Like the ASCII writer, track the *truncated* start time so deltas
	// agree with what the reader reconstructs.
	w.prevStart = w.prevStart.Add(time.Duration(dt) * time.Second)
	w.prevUID = r.UserID
	w.prevSet = true
	w.count++
	return nil
}

// Flush flushes buffered output.
func (w *BinaryWriter) Flush() error { return w.wire.Flush() }

// BinaryReader decodes the binary b1 format. It streams: each Next call
// decodes one record. The shared WireReader owns the buffer: varints
// decode inline from the buffered window and path fields are interned
// straight out of it, so each distinct path is allocated once and every
// later record carrying it reuses the canonical string — steady-state
// decode moves no memory and allocates nothing per record.
type BinaryReader struct {
	wire      *WireReader
	prevStart time.Time
	prevUID   uint32
	started   bool
	rec       int64
	local     pathCache // bounded cache for local paths (no interned consumer)

	// mssCanon and localCanon canonicalise the two path fields:
	// Interner.Canonical and the bounded cache unless ResetBytes set
	// others.
	mssCanon, localCanon internFunc
}

// internFunc canonicalises one validated path's bytes into a string:
// a BinaryReader's hook for each of a record's two paths.
type internFunc func([]byte) string

// NewBinaryReader returns a BinaryReader over r with a private path
// table, which derives no directories: nothing reads them from a
// reader's table. The header line is consumed lazily on the first Next.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return NewBinaryReaderInterned(r, NewFileTable())
}

// NewBinaryReaderInterned returns a BinaryReader that canonicalises MSS
// path fields through the given Interner, letting several readers — or
// a reader and downstream analysis state — share one string table.
// Local paths, which no downstream consumer interns, go through a
// bounded cache instead, so the interner's memory tracks distinct MSS
// paths only.
func NewBinaryReaderInterned(r io.Reader, in *Interner) *BinaryReader {
	b := &BinaryReader{wire: NewWireReader(r), mssCanon: in.Canonical}
	b.localCanon = b.local.canonical
	return b
}

// ResetBytes re-arms the reader over a whole b1 stream held in memory,
// decoding straight out of body (WireReader.ResetBytes: no copy, no
// refill) and canonicalising each record's MSS and local path through
// mss and local, which see a view into body and must return a string
// that does not alias it; nil for either means the reader's own bounded
// cache. Everything else the reader owns — that cache, the wire reader
// — is kept, so one pooled reader (the zero value will do) decodes
// request after request without allocating; body must stay untouched
// until the last Next.
func (r *BinaryReader) ResetBytes(body []byte, mss, local func([]byte) string) {
	if r.wire == nil {
		r.wire = new(WireReader)
	}
	r.wire.ResetBytes(body)
	r.prevStart, r.prevUID, r.started, r.rec = time.Time{}, 0, false, 0
	if mss == nil || local == nil {
		cache := r.local.canonical
		if mss == nil {
			mss = cache
		}
		if local == nil {
			local = cache
		}
	}
	r.mssCanon, r.localCanon = mss, local
}

// Next decodes the next record. It returns io.EOF when the stream ends
// cleanly and io.ErrUnexpectedEOF (wrapped) when it ends mid-record.
// Decode errors name both the record index and the byte offset the
// record begins at, so corruption in a long stream is diagnosable
// without bisecting the file.
func (r *BinaryReader) Next() (Record, error) {
	if !r.started {
		line, err := r.wire.Line()
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, fmt.Errorf("trace: binary header: %v", err)
		}
		if r.prevStart, err = parseHeaderEpoch(line, binaryHeaderPrefix, "binary "); err != nil {
			return Record{}, err
		}
		r.started = true
	}
	off := r.wire.Offset()
	flags, err := r.wire.ReadByte()
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil {
		return Record{}, fmt.Errorf("trace: record %d at byte offset %d: %v", r.rec+1, off, err)
	}
	rec, err := r.decodeBody(flags)
	if err != nil {
		return Record{}, fmt.Errorf("trace: record %d at byte offset %d: %w", r.rec+1, off, err)
	}
	r.rec++
	return rec, nil
}

// decodeBody decodes everything after the flags byte. All errors are
// returned, never panicked, so truncated or corrupt input fails cleanly.
//
//filemig:hotpath
func (r *BinaryReader) decodeBody(flags byte) (Record, error) {
	var rec Record
	if flags&binFlagReserved != 0 {
		return rec, fmt.Errorf("reserved flag bit set (0x%02x)", flags)
	}
	if flags&binFlagWrite != 0 {
		rec.Op = Write
	}
	rec.Compressed = flags&binFlagCompressed != 0
	rec.Err = ErrCode(flags >> binErrShift & 3)
	rec.Device = wireToDev[flags>>binDevShift&3]

	dt, err := r.uvarint("start delta", maxWireSeconds)
	if err != nil {
		return rec, err
	}
	rec.Start = r.prevStart.Add(time.Duration(dt) * time.Second)
	startup, err := r.uvarint("startup", maxWireSeconds)
	if err != nil {
		return rec, err
	}
	rec.Startup = time.Duration(startup) * time.Second
	transfer, err := r.uvarint("transfer", maxWireMillis)
	if err != nil {
		return rec, err
	}
	rec.Transfer = time.Duration(transfer) * time.Millisecond
	size, err := r.uvarint("size", math.MaxInt64)
	if err != nil {
		return rec, err
	}
	rec.Size = units.Bytes(size)
	if flags&binFlagSameUser != 0 {
		rec.UserID = r.prevUID
	} else {
		uid, err := r.uvarint("uid", 1<<32-1)
		if err != nil {
			return rec, err
		}
		rec.UserID = uint32(uid)
	}
	mss, err := r.pathBytes("mss path", "mss path length")
	if err != nil {
		return rec, err
	}
	rec.MSSPath = r.mssCanon(mss)
	local, err := r.pathBytes("local path", "local path length")
	if err != nil {
		return rec, err
	}
	rec.LocalPath = r.localCanon(local)
	r.prevStart = rec.Start
	r.prevUID = rec.UserID
	return rec, nil
}

// Wire-field bounds: durations must survive conversion to int64
// nanoseconds without wrapping, so corrupt varints fail loudly instead
// of decoding to garbage timestamps.
const (
	maxWireSeconds = uint64(math.MaxInt64 / int64(time.Second))
	maxWireMillis  = uint64(math.MaxInt64 / int64(time.Millisecond))
)

// uvarint reads one varint field through the shared wire reader.
func (r *BinaryReader) uvarint(field string, max uint64) (uint64, error) {
	return r.wire.Uvarint(field, max)
}

// pathBytes reads one length-prefixed path field, returning a view the
// caller must canonicalise before the next read (WireReader.Bytes
// semantics), and rejecting the empty path b1 never emits.
func (r *BinaryReader) pathBytes(field, lenField string) ([]byte, error) {
	b, err := r.wire.Bytes(field, lenField, maxBinaryPathLen)
	if err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("%s length must be positive", field)
	}
	return b, nil
}
