package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// The columnar block trace format ("#filemig-trace b2"), the bulk-decode
// sibling of the record-at-a-time b1 codec in binary.go. A b2 file is a
// one-line ASCII header, a sequence of self-contained CRC-framed blocks,
// a trailing block index (per-block record count, min/max timestamp,
// byte offset and length, per-column sizes), and a fixed 12-byte footer
// locating the index. Within a block every record field lives in its own
// column of delta+varint runs, and paths go through a per-block
// dictionary, so a block decodes with a handful of tight column loops
// instead of per-record field dispatch — and, because blocks are
// independent and the index describes them without decoding, a reader
// over an io.ReaderAt can seek straight to any block and decode blocks
// in parallel. Quantisation is identical to v1/b1 (start deltas in whole
// seconds, startup in seconds, transfer in milliseconds), so the three
// formats transcode losslessly. The full wire layout is specified in
// docs/trace-format.md.

// b2HeaderPrefix opens a b2 file; the epoch that follows anchors every
// block's timestamps.
const b2HeaderPrefix = "#filemig-trace b2 epoch="

// Section framing: each section after the header is a tag byte, a
// uvarint body length, the body, and a CRC-32C of the body.
const (
	b2BlockTag = 0x01 // one columnar record block
	b2IndexTag = 0x02 // the trailing block index
)

// b2Footer is the fixed 12-byte file trailer: the byte offset of the
// index section as a little-endian uint64, then the b2Magic. Seekable
// readers locate the index from here without scanning the file.
const (
	b2FooterLen = 12
	b2Magic     = "b2ix"
)

// b2NumCols is the number of per-record columns in a block, in wire
// order: flags, Δstart, startup, transfer, size, Δuid, mss-path ref,
// local-path ref.
const b2NumCols = 8

// Column indexes into a block's column table.
const (
	b2ColFlags = iota
	b2ColDT
	b2ColStartup
	b2ColTransfer
	b2ColSize
	b2ColUID
	b2ColMSSRef
	b2ColLocalRef
)

// DefaultB2BlockRecords is the writer's records-per-block target when
// none is given: large enough that per-block overhead (dictionary,
// framing, index entry) amortizes to noise, small enough that a few
// blocks exist even in modest traces and parallel decode has work to
// scatter.
const DefaultB2BlockRecords = 4096

// Wire-format hard limits, enforced by both ends so corrupt input fails
// loudly instead of provoking huge allocations.
const (
	maxB2BlockRecords = 1 << 20 // records in one block
	maxB2BlockBytes   = 1 << 26 // bytes in one block body
	maxB2IndexBytes   = 1 << 26 // bytes in the index body
)

// b2IndexEntry is one block's row in the trailing index: where the
// block's frame lives, how many records it holds, its time span in
// whole seconds since the epoch, and each column's encoded size.
type b2IndexEntry struct {
	offset   int64 // byte offset of the block's tag from the file start
	frameLen int64 // whole frame: tag + length prefix + body + CRC
	count    int64 // records in the block (>= 1)
	base     int64 // first record's start, seconds since the epoch
	span     int64 // last record's start minus base, seconds
	colSizes [b2NumCols]int64
}

// B2Writer encodes records into the columnar b2 format. Records must be
// written in non-decreasing start-time order and must not start before
// the epoch. Unlike the other writers, Flush finalizes the file — it
// emits the pending block, the index, and the footer — so it must be
// called exactly once, after the last Write.
type B2Writer struct {
	wire      *WireWriter
	epoch     time.Time
	blockRecs int
	headerOut bool
	finalized bool
	pos       int64 // bytes emitted so far (header + block frames)
	count     int64

	// Pending-block state, reset after each flushBlock.
	n        int   // records in the pending block
	baseSec  int64 // first pending record's start, seconds since epoch
	lastSec  int64 // latest pending record's start
	prevUID  uint32
	cols     [b2NumCols][]byte
	mssIdx   map[string]uint64
	localIdx map[string]uint64
	mssDict  []byte // length-prefixed dictionary entries, appearance order
	locDict  []byte
	nMSS     uint64
	nLocal   uint64

	body  []byte // block/index body assembly scratch
	index []b2IndexEntry
}

// NewB2WriterEpoch returns a B2Writer with an explicit epoch; records
// must not start before it.
func NewB2WriterEpoch(w io.Writer, epoch time.Time) *B2Writer {
	return NewB2WriterEpochBlock(w, epoch, DefaultB2BlockRecords)
}

// NewB2WriterEpochBlock returns a B2Writer with an explicit epoch and
// records-per-block target; out-of-range targets fall back to the
// default. Small targets exist for tests that need many blocks from few
// records.
func NewB2WriterEpochBlock(w io.Writer, epoch time.Time, recordsPerBlock int) *B2Writer {
	if recordsPerBlock < 1 || recordsPerBlock > maxB2BlockRecords {
		recordsPerBlock = DefaultB2BlockRecords
	}
	return &B2Writer{
		wire:      NewWireWriter(w),
		epoch:     epoch,
		blockRecs: recordsPerBlock,
		mssIdx:    make(map[string]uint64),
		localIdx:  make(map[string]uint64),
	}
}

// Count reports the number of records written.
func (w *B2Writer) Count() int64 { return w.count }

// Write buffers one record into the pending block, flushing a full
// block to the underlying writer.
func (w *B2Writer) Write(r *Record) error {
	if w.finalized {
		return fmt.Errorf("trace: b2: Write after Flush")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	devCode, ok := devToWire[r.Device]
	if !ok {
		return fmt.Errorf("trace: device class %v has no b2 wire code", r.Device)
	}
	if r.Err < 0 || r.Err > 3 {
		return fmt.Errorf("trace: error code %d does not fit the b2 flags byte", int(r.Err))
	}
	if len(r.MSSPath) > maxBinaryPathLen || len(r.LocalPath) > maxBinaryPathLen {
		return fmt.Errorf("trace: path longer than %d bytes cannot be encoded", maxBinaryPathLen)
	}
	sec := int64(r.Start.Sub(w.epoch) / time.Second)
	if r.Start.Before(w.epoch) {
		return fmt.Errorf("trace: record at %v starts before the b2 epoch %v", r.Start, w.epoch)
	}
	if sec > int64(maxWireSeconds) {
		return fmt.Errorf("trace: record at %v is out of b2 timestamp range", r.Start)
	}
	prev := w.lastSec
	if w.n == 0 {
		prev = sec // the block's first record carries Δt = 0
	}
	if sec < prev || (w.n == 0 && len(w.index) > 0 && sec < w.index[len(w.index)-1].base+w.index[len(w.index)-1].span) {
		return fmt.Errorf("trace: record at %v out of order", r.Start)
	}
	if !w.headerOut {
		w.wire.Raw(fmt.Appendf(nil, "%s%d\n", b2HeaderPrefix, w.epoch.Unix()))
		w.pos = int64(len(b2HeaderPrefix) + uvarintDecimalLen(w.epoch.Unix()) + 1)
		w.headerOut = true
	}
	if w.n == 0 {
		w.baseSec = sec
		w.prevUID = 0
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
	w.cols[b2ColFlags] = append(w.cols[b2ColFlags], flags)
	w.cols[b2ColDT] = binary.AppendUvarint(w.cols[b2ColDT], uint64(sec-prev))
	w.cols[b2ColStartup] = binary.AppendUvarint(w.cols[b2ColStartup], uint64(r.Startup/time.Second))
	w.cols[b2ColTransfer] = binary.AppendUvarint(w.cols[b2ColTransfer], uint64(r.Transfer/time.Millisecond))
	w.cols[b2ColSize] = binary.AppendUvarint(w.cols[b2ColSize], uint64(r.Size))
	du := int64(r.UserID) - int64(w.prevUID)
	w.cols[b2ColUID] = binary.AppendUvarint(w.cols[b2ColUID], uint64(du<<1)^uint64(du>>63))
	w.prevUID = r.UserID
	w.cols[b2ColMSSRef] = binary.AppendUvarint(w.cols[b2ColMSSRef],
		dictRef(w.mssIdx, r.MSSPath, &w.mssDict, &w.nMSS))
	w.cols[b2ColLocalRef] = binary.AppendUvarint(w.cols[b2ColLocalRef],
		dictRef(w.localIdx, r.LocalPath, &w.locDict, &w.nLocal))

	w.lastSec = sec
	w.n++
	w.count++
	if w.n >= w.blockRecs {
		w.flushBlock()
	}
	return w.wire.Err()
}

// dictRef resolves path to its per-block dictionary reference, appending
// a new length-prefixed entry on first sight.
func dictRef(idx map[string]uint64, path string, dict *[]byte, n *uint64) uint64 {
	if ref, ok := idx[path]; ok {
		return ref
	}
	ref := *n
	idx[path] = ref
	*dict = binary.AppendUvarint(*dict, uint64(len(path)))
	*dict = append(*dict, path...)
	*n = ref + 1
	return ref
}

// flushBlock assembles the pending block body, frames it with its CRC,
// and records its index entry.
func (w *B2Writer) flushBlock() {
	body := w.body[:0]
	body = binary.AppendUvarint(body, uint64(w.n))
	body = binary.AppendUvarint(body, uint64(w.baseSec))
	body = binary.AppendUvarint(body, uint64(w.lastSec-w.baseSec))
	body = binary.AppendUvarint(body, w.nMSS)
	body = append(body, w.mssDict...)
	body = binary.AppendUvarint(body, w.nLocal)
	body = append(body, w.locDict...)
	var sizes [b2NumCols]int64
	for c := 0; c < b2NumCols; c++ {
		sizes[c] = int64(len(w.cols[c]))
		body = binary.AppendUvarint(body, uint64(len(w.cols[c])))
		body = append(body, w.cols[c]...)
	}
	w.body = body

	w.index = append(w.index, b2IndexEntry{
		offset:   w.pos,
		frameLen: int64(frameLen(len(body))),
		count:    int64(w.n),
		base:     w.baseSec,
		span:     w.lastSec - w.baseSec,
		colSizes: sizes,
	})
	w.emitFrame(b2BlockTag, body)

	w.n = 0
	w.nMSS, w.nLocal = 0, 0
	w.mssDict, w.locDict = w.mssDict[:0], w.locDict[:0]
	clear(w.mssIdx)
	clear(w.localIdx)
	for c := range w.cols {
		w.cols[c] = w.cols[c][:0]
	}
}

// emitFrame writes one tagged, length-prefixed, CRC-trailed section and
// advances the writer's position.
func (w *B2Writer) emitFrame(tag byte, body []byte) {
	w.wire.Byte(tag)
	w.wire.Uvarint(uint64(len(body)))
	w.wire.Raw(body)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], Checksum(body))
	w.wire.Raw(crc[:])
	w.pos += int64(frameLen(len(body)))
}

// Flush finalizes the file: it emits the pending partial block, the
// index section, and the footer, then drains buffered output. A writer
// that never saw a record emits nothing (the empty trace is zero
// bytes). Calling Flush again is a no-op; calling Write again is an
// error.
func (w *B2Writer) Flush() error {
	if w.finalized {
		return w.wire.Flush()
	}
	w.finalized = true
	if !w.headerOut {
		return w.wire.Flush()
	}
	if w.n > 0 {
		w.flushBlock()
	}
	indexOff := w.pos
	w.body = appendB2IndexBody(w.body[:0], w.epoch.Unix(), w.index)
	w.emitFrame(b2IndexTag, w.body)
	var foot [b2FooterLen]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(indexOff))
	copy(foot[8:], b2Magic)
	w.wire.Raw(foot[:])
	return w.wire.Flush()
}

// appendB2IndexBody serializes the index entries: the epoch (cross-check
// against the ASCII header), the block count, then one row per block.
func appendB2IndexBody(dst []byte, epochSec int64, entries []b2IndexEntry) []byte {
	dst = binary.AppendVarint(dst, epochSec)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = binary.AppendUvarint(dst, uint64(e.offset))
		dst = binary.AppendUvarint(dst, uint64(e.frameLen))
		dst = binary.AppendUvarint(dst, uint64(e.count))
		dst = binary.AppendUvarint(dst, uint64(e.base))
		dst = binary.AppendUvarint(dst, uint64(e.span))
		for _, s := range e.colSizes {
			dst = binary.AppendUvarint(dst, uint64(s))
		}
	}
	return dst
}

// frameLen is the on-disk size of a section frame with the given body
// length: tag, uvarint length prefix, body, CRC.
func frameLen(bodyLen int) int {
	return 1 + uvarintLen(uint64(bodyLen)) + bodyLen + 4
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// uvarintDecimalLen is the printed width of v in base 10, including a
// leading minus sign — the header-length bookkeeping for the epoch.
func uvarintDecimalLen(v int64) int {
	n := 1
	if v < 0 {
		n++
		v = -v
	}
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}
