package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"filemig/internal/pool"
)

// B2File is the seekable view of a b2 trace: it reads the footer and
// the trailing block index from an io.ReaderAt up front, after which
// every block's byte range, record count, and time range are known
// without decoding anything. Callers plan from that metadata — the
// index-aware shard cutter in internal/core groups whole blocks into
// shards from it — and then decode only the blocks they need, in any
// order, from any number of goroutines — the file itself holds no
// decode state, so block decoders share nothing but the reader. It is
// the one b2 reader: OpenStream reads a b2 input through it too, one
// block after another. DecodeCount exposes how many block decodes
// actually happened, so tests can prove planning decoded nothing and
// analysis decoded each block exactly once.
type B2File struct {
	r       io.ReaderAt
	epoch   time.Time
	header  int64
	entries []b2IndexEntry
	records int64
	decodes atomic.Int64
}

// ErrNotB2 reports that the input does not begin with a b2 header. A
// zero-byte input (the empty trace, legal in every format) also reports
// it, so a caller that opens a named file here falls back to OpenStream,
// which sniffs the format and takes the empty trace.
var ErrNotB2 = errors.New("trace: not a b2 file")

// BlockMeta describes one block from the index alone: how many records
// it holds and the start times of its first and last records.
type BlockMeta struct {
	Count int64
	Base  time.Time // first record's start
	End   time.Time // last record's start
}

// OpenB2File reads and validates the header, footer, and block index of
// a b2 file of the given size. It decodes no blocks. Inputs that do not
// start with a b2 header return an error wrapping ErrNotB2; inputs that
// do but are malformed past the header return a corruption error.
func OpenB2File(r io.ReaderAt, size int64) (*B2File, error) {
	f := &B2File{r: r}
	if err := f.readHeader(size); err != nil {
		return nil, err
	}
	if err := f.readIndex(size); err != nil {
		return nil, fmt.Errorf("trace: b2: %w", err)
	}
	for i := range f.entries {
		f.records += f.entries[i].count
	}
	return f, nil
}

// readHeader reads the leading ASCII header line.
func (f *B2File) readHeader(size int64) error {
	buf := make([]byte, 64)
	if size < int64(len(buf)) {
		buf = buf[:size]
	}
	if _, err := io.ReadFull(io.NewSectionReader(f.r, 0, int64(len(buf))), buf); err != nil {
		return fmt.Errorf("%w (cannot read a header: %v)", ErrNotB2, err)
	}
	if !bytes.HasPrefix(buf, []byte(b2HeaderPrefix)) {
		return fmt.Errorf("%w (header is %q)", ErrNotB2, truncForErr(buf))
	}
	n := bytes.IndexByte(buf, '\n')
	if n < 0 {
		return fmt.Errorf("trace: b2: header line %q does not end within %d bytes", truncForErr(buf), len(buf))
	}
	epoch, err := parseHeaderEpoch(string(buf[:n]), b2HeaderPrefix, "b2 ")
	if err != nil {
		return err
	}
	f.epoch, f.header = epoch, int64(n+1)
	return nil
}

// truncForErr bounds header bytes quoted in errors.
func truncForErr(b []byte) []byte {
	if len(b) > 32 {
		b = b[:32]
	}
	return b
}

// readIndex locates the index via the footer, verifies the index
// frame's checksum, and parses and validates the entries against the
// file geometry.
func (f *B2File) readIndex(size int64) error {
	var foot [b2FooterLen]byte
	if _, err := f.r.ReadAt(foot[:], size-b2FooterLen); err != nil {
		return fmt.Errorf("footer: %v", err)
	}
	if string(foot[8:]) != b2Magic {
		return fmt.Errorf("bad footer magic %q", foot[8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[:8]))
	frameEnd := size - b2FooterLen
	if indexOff < f.header || frameEnd-indexOff < 6 || frameEnd-indexOff > maxB2IndexBytes+16 {
		return fmt.Errorf("footer points at %d, outside the file's [%d,%d) section range",
			indexOff, f.header, frameEnd)
	}
	frame := make([]byte, frameEnd-indexOff)
	if _, err := f.r.ReadAt(frame, indexOff); err != nil {
		return fmt.Errorf("index frame: %v", err)
	}
	body, err := openB2Frame(frame, b2IndexTag)
	if err != nil {
		return fmt.Errorf("index frame: %v", err)
	}
	f.entries, err = parseB2IndexBody(body, f.epoch.Unix(), f.header, indexOff)
	if err != nil {
		return fmt.Errorf("index: %v", err)
	}
	return nil
}

// openB2Frame verifies one fully materialized section frame — tag,
// length prefix, body, CRC, nothing more — and returns the body view.
// It is the one place a b2 checksum is checked: the body's Checksum,
// stored little-endian after it.
func openB2Frame(frame []byte, wantTag byte) ([]byte, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("empty frame")
	}
	if frame[0] != wantTag {
		return nil, fmt.Errorf("section tag 0x%02x, want 0x%02x", frame[0], wantTag)
	}
	var r WireReader
	r.ResetBytes(frame[1:])
	body, err := r.Bytes("section body", "section length", uint64(len(frame)))
	if err != nil {
		return nil, err
	}
	crc, err := r.Fixed("section checksum", 4)
	if err != nil {
		return nil, err
	}
	if got, want := Checksum(body), binary.LittleEndian.Uint32(crc); got != want {
		return nil, fmt.Errorf("checksum mismatch: body sums to %08x, frame says %08x", got, want)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the frame", r.remaining())
	}
	return body, nil
}

// Epoch returns the header epoch.
func (f *B2File) Epoch() time.Time { return f.epoch }

// NumBlocks reports how many blocks the index describes.
func (f *B2File) NumBlocks() int { return len(f.entries) }

// NumRecords reports the total record count across all blocks, from the
// index alone.
func (f *B2File) NumRecords() int64 { return f.records }

// Meta returns block i's index metadata.
func (f *B2File) Meta(i int) BlockMeta {
	e := &f.entries[i]
	return BlockMeta{
		Count: e.count,
		Base:  f.epoch.Add(time.Duration(e.base) * time.Second),
		End:   f.epoch.Add(time.Duration(e.base+e.span) * time.Second),
	}
}

// DecodeCount reports how many block decodes have happened over the
// file's lifetime — the observable the shard-skipping tests assert on.
func (f *B2File) DecodeCount() int64 { return f.decodes.Load() }

// B2BlockDecoder decodes individual blocks of one B2File. It owns the
// frame and dictionary scratch a decode needs and its own path table:
// every MSS dictionary entry of every block it decodes is interned there
// once (a file-only table — no directories derived), and DecodeInto
// hands back each record's FileID in it, so a caller that analyses by
// FileID never hashes a path itself. Concurrent goroutines each use
// their own decoder and share nothing; a decoder is not safe for
// concurrent use itself.
//
// The table is append-only, so a FileID, once issued, names the same
// path for the decoder's life. A block rejected after its frame
// checksum verified may already have interned some of its dictionary —
// paths no record was issued for. Callers treat a decode error as the
// failure of whatever they were decoding for (the analysis paths fail
// the whole run), and a fold interns only paths a journal references,
// so such strays never reach a master's table.
type B2BlockDecoder struct {
	f     *B2File
	table *Interner
	local pathCache
	body  []byte
	blk   b2Block

	// The dictionary hooks, bound once so a decode allocates no closure.
	mssCanon, localCanon internFunc
}

// NewBlockDecoder returns a decoder for f's blocks over a fresh path
// table.
func (f *B2File) NewBlockDecoder() *B2BlockDecoder {
	d := &B2BlockDecoder{f: f, table: NewFileTable()}
	d.mssCanon, d.localCanon = d.internMSS, d.local.canonical
	return d
}

// Table returns the decoder's path table: the one the FileIDs DecodeInto
// hands back index. Only the goroutine running the decoder may call its
// methods; hand another goroutine Table().Paths(), a prefix view the
// decoder's later appends never touch.
func (d *B2BlockDecoder) Table() *Interner { return d.table }

// internMSS is the MSS dictionary hook: the one place the decode side
// hashes a path — once per dictionary entry, however many records
// reference it — keeping the entry's FileID beside its canonical string.
//
//filemig:hotpath
func (d *B2BlockDecoder) internMSS(b []byte) string {
	id := d.table.InternBytes(b)
	d.blk.mssIDs = append(d.blk.mssIDs, id)
	return d.table.paths[id]
}

// Decode decodes block i into a freshly allocated record slice.
func (d *B2BlockDecoder) Decode(i int) ([]Record, error) {
	recs := make([]Record, d.f.entries[i].count)
	if err := d.DecodeInto(i, recs, nil); err != nil {
		return nil, err
	}
	return recs, nil
}

// DecodeInto decodes block i into dst, which must hold exactly the
// block's index record count (Meta(i).Count); ids, when non-nil, must be
// as long and receives ids[k] = the FileID of dst[k].MSSPath in Table()
// (for error records too — the trace names a path either way). The
// block's frame is read, checksum-verified, cross-checked against its
// index row, and column-decoded; any mismatch or malformation is an
// error.
func (d *B2BlockDecoder) DecodeInto(i int, dst []Record, ids []FileID) error {
	e := &d.f.entries[i]
	if int64(len(dst)) != e.count || (ids != nil && len(ids) != len(dst)) {
		return fmt.Errorf("trace: b2: block %d holds %d records, dst holds %d (ids %d)", i, e.count, len(dst), len(ids))
	}
	if cap(d.body) < int(e.frameLen) {
		d.body = make([]byte, e.frameLen)
	}
	frame := d.body[:e.frameLen]
	if _, err := d.f.r.ReadAt(frame, e.offset); err != nil {
		return fmt.Errorf("trace: b2: block %d at byte offset %d: %v", i, e.offset, err)
	}
	body, err := openB2Frame(frame, b2BlockTag)
	if err != nil {
		return fmt.Errorf("trace: b2: block %d at byte offset %d: %v", i, e.offset, err)
	}
	if err := parseB2Block(body, d.mssCanon, d.localCanon, &d.blk); err != nil {
		return fmt.Errorf("trace: b2: block %d at byte offset %d: %v", i, e.offset, err)
	}
	if err := checkB2Block(i, &d.blk, e); err != nil {
		return fmt.Errorf("trace: b2: at byte offset %d: %v", e.offset, err)
	}
	if err := decodeB2Columns(&d.blk, d.f.epoch, dst, ids); err != nil {
		return fmt.Errorf("trace: b2: block %d at byte offset %d: %v", i, e.offset, err)
	}
	d.f.decodes.Add(1)
	return nil
}

// openB2Stream opens a b2 trace for one sequential read through its
// block index. at of the given size is read in place; a nil at means
// rest is read into memory first, since a b2 stream cannot be validated
// before its trailing index arrives. Zero bytes are the empty trace; any
// other input that does not open is an error here, before any record.
func openB2Stream(at io.ReaderAt, size int64, rest io.Reader) (Stream, error) {
	if at == nil {
		data, err := io.ReadAll(rest)
		if err != nil {
			return nil, fmt.Errorf("trace: b2: reading input: %v", err)
		}
		at, size = bytes.NewReader(data), int64(len(data))
	}
	if size == 0 {
		return emptyStream{}, nil
	}
	f, err := OpenB2File(at, size)
	if err != nil {
		return nil, err
	}
	return &b2Stream{d: f.NewBlockDecoder()}, nil
}

// b2Stream yields a B2File's records in file order, decoding one block
// after another on the caller's goroutine into a reused buffer. It
// starts no goroutine, so a consumer may stop at any point; the first
// error (or io.EOF) sticks.
type b2Stream struct {
	d    *B2BlockDecoder
	blk  int // the next block to decode
	recs []Record
	next int
	err  error
}

// Next returns the next record.
func (s *b2Stream) Next() (Record, error) {
	for s.next == len(s.recs) {
		if s.err != nil {
			return Record{}, s.err
		}
		if s.blk == len(s.d.f.entries) {
			s.err = io.EOF
			continue
		}
		buf := s.recs
		if n := int(s.d.f.entries[s.blk].count); cap(buf) < n {
			buf = make([]Record, n)
		} else {
			buf = buf[:n]
		}
		if s.err = s.d.DecodeInto(s.blk, buf, nil); s.err == nil {
			s.recs, s.next = buf, 0
			s.blk++
		}
	}
	s.next++
	return s.recs[s.next-1], nil
}

// Stream returns a Stream over the whole file that decodes blocks with
// the given number of worker goroutines but yields records in exact
// file order — byte-for-byte the same sequence at any worker count.
// At most workers+1 decoded blocks wait for the consumer, so memory
// stays bounded on arbitrarily large files. The stream must be drained
// to io.EOF or its first error; both tear the workers down.
func (f *B2File) Stream(workers int) Stream {
	s := &b2ParallelStream{blocks: make(chan []Record)}
	// The pump runs the pool and feeds Next; by the time it closes
	// blocks every worker has finished, so once Next has reported the
	// end or an error nothing still touches the underlying reader.
	go func() {
		s.err = pool.Run(context.Background(), workers, pool.Indices(len(f.entries)),
			func() func(int) ([]Record, error) { return f.NewBlockDecoder().Decode },
			func(recs []Record) error { s.blocks <- recs; return nil })
		close(s.blocks)
	}()
	return s
}

// b2ParallelStream yields records from parallel block decodes in block
// order. Errors are deterministic too: the error reported is the
// earliest failing block's, regardless of which worker failed first,
// after every record of the blocks before it.
type b2ParallelStream struct {
	blocks chan []Record
	err    error // the pool's verdict; written before blocks is closed
	cur    []Record
	next   int
}

// Next returns the next record in file order.
func (s *b2ParallelStream) Next() (Record, error) {
	for s.next >= len(s.cur) {
		recs, ok := <-s.blocks
		if !ok {
			if s.err != nil {
				return Record{}, s.err
			}
			return Record{}, io.EOF
		}
		s.cur, s.next = recs, 0
	}
	rec := s.cur[s.next]
	s.next++
	return rec, nil
}
