package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// B2Reader decodes the columnar b2 format from a forward-only stream.
// It implements Stream by decoding one whole block at a time into an
// internal record buffer and handing records out of it; the buffer,
// the frame-body scratch, and the per-block dictionaries are all
// reused, so steady-state decode allocates only for never-seen paths.
// As it reads, it records each block's actual geometry and, on reaching
// the trailing index, verifies the index describes exactly the blocks
// it decoded and the footer points at the index — so a sequential read
// proves the file is self-consistent end to end.
type B2Reader struct {
	wire    *WireReader
	epoch   time.Time
	started bool
	done    bool

	in         *Interner
	local      pathCache
	mssCanon   internFunc
	localCanon internFunc

	blk  b2Block
	recs []Record
	next int

	body     []byte
	observed []b2IndexEntry
	pos      int64 // bytes consumed: where the next section's tag sits
	header   int64 // header line length including its newline
}

// NewB2Reader returns a B2Reader over r with a private path interner.
// The header line is consumed lazily on the first Next.
func NewB2Reader(r io.Reader) *B2Reader {
	return NewB2ReaderInterned(r, NewInterner())
}

// NewB2ReaderInterned returns a B2Reader that canonicalises MSS path
// fields through the given Interner; local paths go through a bounded
// private cache, as in the b1 reader.
func NewB2ReaderInterned(r io.Reader, in *Interner) *B2Reader {
	b := &B2Reader{wire: NewWireReader(r), in: in}
	b.mssCanon = in.Canonical
	b.localCanon = b.local.canonical
	return b
}

// Epoch returns the epoch parsed from the header; it is the zero time
// until the first Next has consumed the header.
func (r *B2Reader) Epoch() time.Time { return r.epoch }

// Next returns the next record, io.EOF after the verified end of the
// file, and a decoding error for any malformed input.
func (r *B2Reader) Next() (Record, error) {
	for r.next >= len(r.recs) {
		if r.done {
			return Record{}, io.EOF
		}
		if err := r.advance(); err != nil {
			return Record{}, err
		}
	}
	rec := r.recs[r.next]
	r.next++
	return rec, nil
}

// advance consumes the next section of the stream: the header on the
// first call, then one block (refilling the record buffer), or the
// index + footer, which ends the stream.
func (r *B2Reader) advance() error {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return err
		}
		r.started = true
		if r.done { // zero-byte input: the empty trace
			return nil
		}
	}
	tag, err := r.wire.ReadByte()
	if err == io.EOF {
		// A b2 file that got past the header has at least one block and
		// must close with its index and footer.
		return fmt.Errorf("trace: b2: file ends without an index: %w", io.ErrUnexpectedEOF)
	}
	if err != nil {
		return fmt.Errorf("trace: b2: section tag: %v", err)
	}
	switch tag {
	case b2BlockTag:
		if err := r.readBlock(); err != nil {
			return fmt.Errorf("trace: b2: block %d: %w", len(r.observed), err)
		}
		return nil
	case b2IndexTag:
		if err := r.readIndexAndFooter(); err != nil {
			return fmt.Errorf("trace: b2: index: %w", err)
		}
		r.done = true
		return nil
	}
	return fmt.Errorf("trace: b2: unknown section tag 0x%02x", tag)
}

// readHeader parses the one-line ASCII header. A clean zero-byte input
// is io.EOF: the empty trace.
func (r *B2Reader) readHeader() error {
	line, err := r.wire.Line()
	if err == io.EOF {
		r.done = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("trace: b2 header: %v", err)
	}
	if !strings.HasPrefix(line, b2HeaderPrefix) {
		return fmt.Errorf("trace: missing b2 header, got %q", line)
	}
	sec, err := strconv.ParseInt(strings.TrimPrefix(line, b2HeaderPrefix), 10, 64)
	if err != nil {
		return fmt.Errorf("trace: bad b2 header epoch: %v", err)
	}
	r.epoch = time.Unix(sec, 0).UTC()
	r.header = int64(len(line)) + 1
	r.pos = r.header
	return nil
}

// readFrame consumes one section frame after its tag — length prefix,
// body, CRC — returning the verified body in the reusable scratch.
func (r *B2Reader) readFrame(maxBody uint64) ([]byte, error) {
	n, err := r.wire.Uvarint("section length", maxBody)
	if err != nil {
		return nil, err
	}
	// Presize the scratch for ordinary section sizes so steady-state
	// reads don't regrow it; a huge (possibly corrupt) length still
	// grows incrementally inside AppendN as data actually arrives.
	if uint64(cap(r.body)) < n && n <= 1<<20 {
		r.body = make([]byte, 0, n)
	}
	r.body, err = r.wire.AppendN("section body", r.body[:0], int(n))
	if err != nil {
		return nil, err
	}
	crc, err := r.wire.Fixed("section checksum", 4)
	if err != nil {
		return nil, err
	}
	if err := checkB2CRC(r.body, crc); err != nil {
		return nil, err
	}
	return r.body, nil
}

// readBlock consumes and decodes one block frame, refilling the record
// buffer and appending the block's observed index row.
func (r *B2Reader) readBlock() error {
	body, err := r.readFrame(maxB2BlockBytes)
	if err != nil {
		return err
	}
	if err := parseB2Block(body, r.mssCanon, r.localCanon, &r.blk); err != nil {
		return err
	}
	if n := len(r.observed); n > 0 {
		if prevEnd := r.observed[n-1].base + r.observed[n-1].span; r.blk.base < prevEnd {
			return fmt.Errorf("block base %d before the previous block's end %d", r.blk.base, prevEnd)
		}
	}
	if cap(r.recs) < r.blk.count {
		r.recs = make([]Record, r.blk.count)
	}
	r.recs = r.recs[:r.blk.count]
	if err := decodeB2Columns(&r.blk, r.epoch, r.recs, nil); err != nil {
		return err
	}
	r.next = 0
	e := b2IndexEntry{
		offset:   r.pos,
		frameLen: int64(frameLen(len(body))),
		count:    int64(r.blk.count),
		base:     r.blk.base,
		span:     r.blk.span,
	}
	for col := range r.blk.cols {
		e.colSizes[col] = int64(len(r.blk.cols[col]))
	}
	r.observed = append(r.observed, e)
	r.pos += e.frameLen
	return nil
}

// readIndexAndFooter consumes the index frame and the footer, verifying
// the index matches the blocks actually decoded, the footer points back
// at the index, and nothing follows.
func (r *B2Reader) readIndexAndFooter() error {
	// r.pos still names the index tag's offset: advance consumed the tag
	// byte but only readBlock moves pos, by whole frames.
	indexOff := r.pos
	body, err := r.readFrame(maxB2IndexBytes)
	if err != nil {
		return err
	}
	entries, err := parseB2IndexBody(body, r.epoch.Unix(), r.header, indexOff)
	if err != nil {
		return err
	}
	if len(entries) != len(r.observed) {
		return fmt.Errorf("index describes %d blocks but the file holds %d", len(entries), len(r.observed))
	}
	for i := range entries {
		if entries[i] != r.observed[i] {
			return fmt.Errorf("index entry %d does not match block %d as read "+
				"(index: offset %d len %d count %d base %d span %d; read: offset %d len %d count %d base %d span %d)",
				i, i,
				entries[i].offset, entries[i].frameLen, entries[i].count, entries[i].base, entries[i].span,
				r.observed[i].offset, r.observed[i].frameLen, r.observed[i].count, r.observed[i].base, r.observed[i].span)
		}
	}
	foot, err := r.wire.Fixed("footer", b2FooterLen)
	if err != nil {
		return err
	}
	if string(foot[8:]) != b2Magic {
		return fmt.Errorf("bad footer magic %q", foot[8:])
	}
	if off := int64(binary.LittleEndian.Uint64(foot[:8])); off != indexOff {
		return fmt.Errorf("footer points at %d but the index is at %d", off, indexOff)
	}
	if err := r.wire.ExpectEOF(); err != nil {
		return fmt.Errorf("after footer: %v", err)
	}
	return nil
}
