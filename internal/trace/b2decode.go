package trace

import (
	"fmt"
	"math"
	"slices"
	"time"

	"filemig/internal/units"
)

// The b2 decode layer under the one b2 reader, B2File (b2file.go): it
// materializes one whole section frame into memory (the frames are small
// and CRC-framed, so there is nothing to gain from streaming inside
// one), verifies its checksum in openB2Frame, and hands the body here.
// Every field is read through a WireReader armed with ResetBytes over
// the body (or, for the column runs, one reader per column), so the
// body's end is the hard end of every field and truncation inside one is
// an explicit error. This file decodes a block body into records and an
// index body into validated b2IndexEntry rows, returning an error for
// every malformed input — truncation, bit flips the CRC somehow missed,
// impossible counts, out-of-order timestamps — and never panicking or
// silently skewing.

// b2Block is one decoded block body: its header fields, per-block path
// dictionaries already canonicalised to strings, and the raw column
// byte runs (views into the body buffer).
type b2Block struct {
	count      int
	base, span int64 // first record's start and last-minus-first, seconds since epoch
	mssDict    []string
	mssIDs     []FileID // parallel to mssDict when a block decoder's table resolved it, else empty
	localDict  []string
	cols       [b2NumCols][]byte
}

// internFunc canonicalises one validated path's bytes into a string;
// the block decoder passes its table lookup for MSS paths and
// pathCache.canonical for local paths, so dictionary entries resolve
// once per block, not once per record.
type internFunc func([]byte) string

// parseB2Block decodes a verified block body into blk. Dictionary
// entries are validated as wire-legal paths here, so any record
// assembled from the block re-encodes cleanly. blk's dictionary slices
// are reused across calls; the column slices are views into body and
// share its lifetime.
func parseB2Block(body []byte, mss, local internFunc, blk *b2Block) error {
	var r WireReader
	r.ResetBytes(body)
	count, err := r.Uvarint("block record count", maxB2BlockRecords)
	if err != nil {
		return err
	}
	if count == 0 {
		return fmt.Errorf("block record count must be positive")
	}
	base, err := r.Uvarint("block base time", maxWireSeconds)
	if err != nil {
		return err
	}
	span, err := r.Uvarint("block time span", maxWireSeconds-base)
	if err != nil {
		return err
	}
	blk.count = int(count)
	blk.base, blk.span = int64(base), int64(span)
	n, err := b2DictSize(&r, "mss", count)
	if err != nil {
		return err
	}
	// The block decoder's lookup fills mssIDs entry by entry, and sizes
	// its miss scratch from what is left of it.
	blk.mssIDs = slices.Grow(blk.mssIDs[:0], b2DictHint(&r, n))
	if blk.mssDict, err = parseB2Dict(&r, "mss", n, mss, blk.mssDict[:0]); err != nil {
		return err
	}
	if n, err = b2DictSize(&r, "local", count); err != nil {
		return err
	}
	if blk.localDict, err = parseB2Dict(&r, "local", n, local, blk.localDict[:0]); err != nil {
		return err
	}
	// Every record carries two path references, so a non-empty block
	// cannot have an empty dictionary (and the reference columns below
	// bound their values by the dictionary sizes).
	if len(blk.mssDict) == 0 || len(blk.localDict) == 0 {
		return fmt.Errorf("empty path dictionary in a block of %d records", blk.count)
	}
	for col := 0; col < b2NumCols; col++ {
		if blk.cols[col], err = r.Bytes("column bytes", "column length", uint64(r.remaining())); err != nil {
			return fmt.Errorf("column %d: %v", col, err)
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes after the last column", r.remaining())
	}
	if len(blk.cols[b2ColFlags]) != blk.count {
		return fmt.Errorf("flags column holds %d bytes for %d records",
			len(blk.cols[b2ColFlags]), blk.count)
	}
	return nil
}

// b2DictSize reads one per-block path dictionary's entry count. Every
// entry backs at least one record, so the count is bounded by the
// block's record count.
func b2DictSize(r *WireReader, which string, maxEntries uint64) (uint64, error) {
	n, err := r.Uvarint("dictionary size", maxEntries)
	if err != nil {
		return 0, fmt.Errorf("%s dictionary: %v", which, err)
	}
	return n, nil
}

// b2DictHint is how many entries of an n-entry dictionary the bytes
// left in r can hold — each takes at least a length byte and a path
// byte — so that sizing a slice for them trusts no count the block does
// not back with bytes.
func b2DictHint(r *WireReader, n uint64) int {
	return int(min(n, uint64(r.remaining()/2)))
}

// parseB2Dict decodes one per-block path dictionary of n entries,
// whose count b2DictSize read: that many length-prefixed paths in
// first-appearance order.
func parseB2Dict(r *WireReader, which string, n uint64, canon internFunc, dst []string) ([]string, error) {
	dst = slices.Grow(dst, b2DictHint(r, n))
	for i := uint64(0); i < n; i++ {
		b, err := r.Bytes("path", "path length", maxBinaryPathLen)
		if err != nil {
			return dst, fmt.Errorf("%s dictionary entry %d: %v", which, i, err)
		}
		if !validPath(b) {
			return dst, fmt.Errorf("%s dictionary entry %d: bad path %q", which, i, b)
		}
		dst = append(dst, canon(b))
	}
	return dst, nil
}

// decodeB2Columns assembles blk's columns into dst, which must hold
// exactly blk.count records. This is the bulk-decode hot loop: one pass
// of inline varint decoding per column with no per-record dispatch, no
// map traffic (dictionary references index the pre-canonicalised
// slices), and no allocation — the callers own dst and reuse it. ids,
// when non-nil, is as long as dst and receives each record's MSS path
// FileID out of blk.mssIDs, so a path is hashed once per dictionary
// entry and never per record. Every malformed run errors: a first delta
// that is not zero, deltas overshooting the block span, reserved flag
// bits, references outside the dictionary, or a column with leftover or
// missing bytes.
//
//filemig:hotpath
func decodeB2Columns(blk *b2Block, epoch time.Time, dst []Record, ids []FileID) error {
	flags := blk.cols[b2ColFlags]
	var col [b2NumCols]WireReader // the flags column is read as raw bytes
	for c := b2ColDT; c < b2NumCols; c++ {
		col[c].ResetBytes(blk.cols[c])
	}
	dt, startup, transfer, size := &col[b2ColDT], &col[b2ColStartup], &col[b2ColTransfer], &col[b2ColSize]
	uid, mssRef, localRef := &col[b2ColUID], &col[b2ColMSSRef], &col[b2ColLocalRef]

	sec := blk.base
	prevUID := int64(0)
	for i := range dst {
		r := &dst[i]
		f := flags[i]
		if f&(binFlagSameUser|binFlagReserved) != 0 {
			return fmt.Errorf("record %d: reserved flag bit set (0x%02x)", i, f)
		}
		r.Op = Read
		if f&binFlagWrite != 0 {
			r.Op = Write
		}
		r.Compressed = f&binFlagCompressed != 0
		r.Err = ErrCode(f >> binErrShift & 3)
		r.Device = wireToDev[f>>binDevShift&3]

		d, err := dt.Uvarint("start delta", uint64(blk.span-(sec-blk.base)))
		if err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		if i == 0 && d != 0 {
			return fmt.Errorf("record 0: first start delta must be zero, got %d", d)
		}
		sec += int64(d)
		r.Start = epoch.Add(time.Duration(sec) * time.Second)

		v, err := startup.Uvarint("startup", maxWireSeconds)
		if err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		r.Startup = time.Duration(v) * time.Second
		if v, err = transfer.Uvarint("transfer", maxWireMillis); err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		r.Transfer = time.Duration(v) * time.Millisecond
		if v, err = size.Uvarint("size", math.MaxInt64); err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		r.Size = units.Bytes(v)

		du, err := uid.Svarint("uid delta")
		if err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		u := prevUID + du
		if u < 0 || u > math.MaxUint32 {
			return fmt.Errorf("record %d: uid %d out of range", i, u)
		}
		prevUID = u
		r.UserID = uint32(u)

		if v, err = mssRef.Uvarint("mss path ref", uint64(len(blk.mssDict))-1); err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		r.MSSPath = blk.mssDict[v]
		if ids != nil {
			ids[i] = blk.mssIDs[v]
		}
		if v, err = localRef.Uvarint("local path ref", uint64(len(blk.localDict))-1); err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		r.LocalPath = blk.localDict[v]
	}
	if sec != blk.base+blk.span {
		return fmt.Errorf("start deltas end %d seconds short of the block span", blk.base+blk.span-sec)
	}
	for c := b2ColDT; c < b2NumCols; c++ {
		if n := col[c].remaining(); n != 0 {
			return fmt.Errorf("column %d: %d trailing bytes after the last record", c, n)
		}
	}
	return nil
}

// parseB2IndexBody decodes and validates an index body against the file
// geometry: headerLen is where the first block must start and indexOff
// is where the index frame was found, so the entries must tile the
// bytes between them exactly — contiguous, in order, and with
// non-decreasing block time ranges. wantEpochSec cross-checks the
// CRC-protected index against the plain-ASCII header, catching header
// corruption the frame checksums cannot see.
func parseB2IndexBody(body []byte, wantEpochSec, headerLen, indexOff int64) ([]b2IndexEntry, error) {
	var r WireReader
	r.ResetBytes(body)
	// uv reads a non-negative int64 field stored as a uvarint.
	uv := func(field string, max int64) (int64, error) {
		v, err := r.Uvarint(field, uint64(max))
		return int64(v), err
	}
	epochSec, err := r.Svarint("index epoch")
	if err != nil {
		return nil, err
	}
	if epochSec != wantEpochSec {
		return nil, fmt.Errorf("index epoch %d disagrees with header epoch %d", epochSec, wantEpochSec)
	}
	n, err := r.Uvarint("index block count", uint64(len(body)))
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("index holds no blocks")
	}
	entries := make([]b2IndexEntry, n)
	nextOff := headerLen
	nextBase := int64(0)
	for i := range entries {
		e := &entries[i]
		if e.offset, err = uv("block offset", math.MaxInt64); err != nil {
			return nil, fmt.Errorf("index entry %d: %v", i, err)
		}
		if e.frameLen, err = uv("block frame length", maxB2BlockBytes); err != nil {
			return nil, fmt.Errorf("index entry %d: %v", i, err)
		}
		if e.count, err = uv("block record count", maxB2BlockRecords); err != nil {
			return nil, fmt.Errorf("index entry %d: %v", i, err)
		}
		if e.base, err = uv("block base time", int64(maxWireSeconds)); err != nil {
			return nil, fmt.Errorf("index entry %d: %v", i, err)
		}
		if e.span, err = uv("block time span", int64(maxWireSeconds)-e.base); err != nil {
			return nil, fmt.Errorf("index entry %d: %v", i, err)
		}
		for col := range e.colSizes {
			if e.colSizes[col], err = uv("column size", maxB2BlockBytes); err != nil {
				return nil, fmt.Errorf("index entry %d column %d: %v", i, col, err)
			}
		}
		switch {
		case e.count == 0:
			return nil, fmt.Errorf("index entry %d: block record count must be positive", i)
		case e.offset != nextOff:
			return nil, fmt.Errorf("index entry %d: block at offset %d, want %d (blocks must tile the file)",
				i, e.offset, nextOff)
		case e.base < nextBase:
			return nil, fmt.Errorf("index entry %d: block base %d before the previous block's end %d",
				i, e.base, nextBase)
		case e.colSizes[b2ColFlags] != e.count:
			return nil, fmt.Errorf("index entry %d: flags column %d bytes for %d records",
				i, e.colSizes[b2ColFlags], e.count)
		}
		nextOff = e.offset + e.frameLen
		nextBase = e.base + e.span
	}
	if nextOff != indexOff {
		return nil, fmt.Errorf("last block ends at %d but the index starts at %d", nextOff, indexOff)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the last index entry", r.remaining())
	}
	return entries, nil
}

// checkB2Block cross-checks a decoded block against the index row that
// located it, so every block read proves the index describes it.
func checkB2Block(i int, blk *b2Block, e *b2IndexEntry) error {
	if int64(blk.count) != e.count || blk.base != e.base || blk.span != e.span {
		return fmt.Errorf("block %d is %d records over [%d,%d] but the index says %d over [%d,%d]",
			i, blk.count, blk.base, blk.base+blk.span, e.count, e.base, e.base+e.span)
	}
	for col := range blk.cols {
		if int64(len(blk.cols[col])) != e.colSizes[col] {
			return fmt.Errorf("block %d column %d is %d bytes but the index says %d",
				i, col, len(blk.cols[col]), e.colSizes[col])
		}
	}
	return nil
}
