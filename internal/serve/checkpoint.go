package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// The migd checkpoint is a header line followed by one dist wire frame
// per segment, in trace order. Each frame's payload is the segment's
// record-time bounds (two signed varints of UnixNano — the s1 snapshot
// does not carry error-record bounds, so the checkpoint does) followed
// by the segment's s1 snapshot. The CRC on every frame means a torn or
// bit-flipped checkpoint fails loudly at restore instead of resuming
// from silently wrong state.
//
// The daemon keeps no frame in memory. The last checkpoint file it
// wrote or restored stays open as its frame cache, and each segment
// untouched since then remembers where its frame sits there: the next
// checkpoint copies those bytes, CRC-checked, instead of re-serializing
// the segment.

// CheckpointHeader opens every migd checkpoint file.
const CheckpointHeader = "#migd-checkpoint c1\n"

// frameLoc is where a segment's checkpoint frame sits in a checkpoint
// file: its offset and length. The zero value locates nothing.
type frameLoc struct{ off, n int64 }

// checkpointFile is a checkpoint being written and, once renamed into
// place, the frame cache it is read back from — an *os.File.
type checkpointFile interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	Name() string
}

// cutFrame is one segment's place in a checkpoint being written.
type cutFrame struct {
	sg      *segment
	records int64    // the segment's record count at the cut
	from    frameLoc // its frame in the frame cache, to copy; zero when the cut encoded it
	to      frameLoc // its frame in the new file
}

// checkpointCost is what one checkpoint wrote: the segments it
// serialized, the frames it copied from the frame cache, and the file's
// size.
type checkpointCost struct {
	encoded, copied, bytes int64
}

// errStaleFrame reports a cached frame that failed its CRC on the way
// to a new checkpoint; its segment has lost its cached location.
var errStaleFrame = errors.New("a cached checkpoint frame failed its check")

// frameEncoder serializes segments into checkpoint frames through one
// codec and two reused buffers, so at most one segment's frame is held
// at a time.
type frameEncoder struct {
	codec   *core.SegmentCodec
	payload bytes.Buffer
	frame   []byte
}

// encode returns p's checkpoint frame — its two bounds, then its s1
// snapshot — valid until the next call.
func (e *frameEncoder) encode(p *core.Partial) ([]byte, error) {
	first, last := p.Bounds()
	var bounds [2 * binary.MaxVarintLen64]byte
	n := binary.PutVarint(bounds[:], first.UnixNano())
	n += binary.PutVarint(bounds[n:], last.UnixNano())
	e.payload.Reset()
	e.payload.Write(bounds[:n])
	if err := e.codec.Write(&e.payload, p); err != nil {
		return nil, err
	}
	e.frame = dist.AppendFrame(e.frame[:0], e.payload.Bytes())
	return e.frame, nil
}

// cut writes a checkpoint's header and frames to w, walking the
// segments in trace order under mu. When reserve is set, a segment
// whose current frame is in the frame cache only has its frame's range
// reserved through it, to be copied in once mu is released; every
// other segment is encoded straight into w. It returns where each
// frame lands and the count of records ingested since the last
// checkpoint, as of this cut. The segments are left as they were.
func (s *Server) cut(w io.Writer, reserve func(n int64) error) (frames []cutFrame, pending int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := io.WriteString(w, CheckpointHeader); err != nil {
		return nil, 0, err
	}
	off := int64(len(CheckpointHeader))
	enc := frameEncoder{codec: core.NewSegmentCodec(s.paths)}
	segs := s.orderedSegments()
	frames = make([]cutFrame, len(segs))
	for i, sg := range segs {
		f := cutFrame{sg: sg, records: sg.p.Records()}
		if reserve != nil && sg.frame.n > 0 {
			f.from = sg.frame
			err = reserve(f.from.n)
			f.to = frameLoc{off, f.from.n}
		} else {
			var frame []byte
			if frame, err = enc.encode(sg.p); err == nil {
				_, err = w.Write(frame)
			}
			f.to = frameLoc{off, int64(len(frame))}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("segment %d: %w", i, err)
		}
		off += f.to.n
		frames[i] = f
	}
	return frames, s.sinceCkpt.Load(), nil
}

// EncodeCheckpoint serializes the daemon's full segment state in the
// checkpoint format, encoding every segment.
func (s *Server) EncodeCheckpoint() ([]byte, error) {
	var out bytes.Buffer
	if _, _, err := s.cut(&out, nil); err != nil {
		return nil, fmt.Errorf("serve: checkpoint %w", err)
	}
	return out.Bytes(), nil
}

// Checkpoint writes the daemon's state to Config.CheckpointPath,
// atomically: the frames go into a temporary sibling first, which is
// renamed over the target, so a crash mid-write leaves the previous
// checkpoint intact. Checkpoints are serialised — cut, copy, rename and
// the pending-record count all happen under one mutex — so a call that
// finds another in flight waits for it and then takes its own; ingest
// is stalled only for the cut.
func (s *Server) Checkpoint() error {
	_, err := s.checkpoint()
	return err
}

// checkpoint is Checkpoint, reporting what the checkpoint cost.
func (s *Server) checkpoint() (checkpointCost, error) {
	if s.cfg.CheckpointPath == "" {
		return checkpointCost{}, errors.New("serve: no checkpoint path configured")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is checkpoint with ckptMu already held. A cached
// frame that fails its CRC on the way over costs its segment the cached
// location and the checkpoint one more pass, which encodes it.
func (s *Server) checkpointLocked() (checkpointCost, error) {
	for {
		cost, err := s.writeCheckpoint()
		if errors.Is(err, errStaleFrame) {
			s.logf("serve: checkpoint: %v; writing it again", err)
			continue
		}
		if err != nil {
			return cost, fmt.Errorf("serve: checkpoint: %w", err)
		}
		return cost, nil
	}
}

// writeCheckpoint makes one attempt at a checkpoint: the cut encodes
// into a fresh temporary and reserves the cached frames' ranges, the
// cached frames are copied in once mu is released, and the temporary is
// renamed into place and kept open as the new frame cache. Only then do
// the segments learn where their frames now sit — all but those that
// ingested since the cut — so a failed attempt leaves the previous file
// and every location in it usable.
func (s *Server) writeCheckpoint() (cost checkpointCost, err error) {
	tmp, err := s.createTemp(filepath.Dir(s.cfg.CheckpointPath))
	if err != nil {
		return cost, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name()) // best effort; err is the failure to report
		}
	}()
	out := io.NewOffsetWriter(tmp, 0)
	w := bufio.NewWriterSize(out, 1<<16)
	var reserve func(int64) error
	if s.cache != nil {
		reserve = func(n int64) error {
			if err := w.Flush(); err != nil {
				return err
			}
			_, err := out.Seek(n, io.SeekCurrent)
			return err
		}
	}
	frames, pending, err := s.cut(w, reserve)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = s.copyFrames(tmp, frames)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.cfg.CheckpointPath)
	}
	if err != nil {
		return cost, err
	}

	cost.bytes = int64(len(CheckpointHeader))
	s.mu.Lock()
	for _, f := range frames {
		if f.sg.p.Records() == f.records {
			f.sg.frame = f.to
		}
		if f.from.n > 0 {
			cost.copied++
		} else {
			cost.encoded++
		}
		cost.bytes += f.to.n
	}
	s.mu.Unlock()
	if s.cache != nil {
		s.cache.Close()
	}
	s.cache = tmp
	s.checkpoints.Add(1)
	s.sinceCkpt.Add(-pending)
	return cost, nil
}

// copyFrames copies every reserved frame from the frame cache into its
// range of dst, one frame in memory at a time, checking each frame's
// CRC on the way; frames that land back to back share one buffered
// write. A frame that fails is never written: its segment loses its
// cached location — the next cut encodes it — and once the rest are
// checked copyFrames reports errStaleFrame.
func (s *Server) copyFrames(dst io.WriterAt, frames []cutFrame) error {
	out := bufio.NewWriterSize(nil, 1<<16)
	outAt := int64(-1) // where the buffered writes stand in dst
	var frame []byte
	var stale []*segment
	for _, f := range frames {
		if f.from.n == 0 {
			continue
		}
		frame = slices.Grow(frame[:0], int(f.from.n))[:f.from.n]
		_, err := s.cache.ReadAt(frame, f.from.off)
		if err == nil {
			_, err = dist.DecodeFrame(frame)
		}
		if err != nil {
			stale = append(stale, f.sg)
			continue
		}
		if len(stale) > 0 {
			continue
		}
		if f.to.off != outAt {
			if err := out.Flush(); err != nil {
				return err
			}
			out.Reset(io.NewOffsetWriter(dst, f.to.off))
		}
		if _, err := out.Write(frame); err != nil {
			return err
		}
		outAt = f.to.off + f.to.n
	}
	if len(stale) == 0 {
		return out.Flush()
	}
	s.mu.Lock()
	for _, sg := range stale {
		sg.frame = frameLoc{}
	}
	s.mu.Unlock()
	return fmt.Errorf("%w (%d of them)", errStaleFrame, len(stale))
}

// CheckpointIfChanged is Checkpoint for the callers with nothing new to
// say — a wall-clock tick, a shutdown: it skips the write, reporting
// false, when no record has been ingested since the last successful
// checkpoint (or the restore) and the checkpoint file is still in
// place.
func (s *Server) CheckpointIfChanged() (wrote bool, err error) {
	if s.sinceCkpt.Load() == 0 {
		if _, err := os.Stat(s.cfg.CheckpointPath); err == nil {
			return false, nil
		}
	}
	return true, s.Checkpoint()
}

// maybeCheckpoint runs the record-count checkpoint cadence after a
// batch was applied. It never waits: a tick that finds a checkpoint in
// flight is skipped.
func (s *Server) maybeCheckpoint() {
	if s.cfg.CheckpointEvery <= 0 || s.cfg.CheckpointPath == "" {
		return
	}
	if s.sinceCkpt.Load() < s.cfg.CheckpointEvery {
		return
	}
	// Every ingest goroutine past the threshold lands here; the one that
	// gets the mutex checkpoints, the rest skip — the checkpoint in
	// flight (or the next batch's tick) covers their records.
	if !s.ckptMu.TryLock() {
		return
	}
	defer s.ckptMu.Unlock()
	if s.sinceCkpt.Load() < s.cfg.CheckpointEvery {
		return // a checkpoint finished between the check above and the lock
	}
	if _, err := s.checkpointLocked(); err != nil {
		s.logf("migd: cadence checkpoint failed: %v", err)
	}
}

// RestoreCheckpoint loads a checkpoint held in memory into an empty
// server; see RestoreCheckpointFile.
func (s *Server) RestoreCheckpoint(data []byte) error {
	return s.restore(bytes.NewReader(data), int64(len(data)), nil)
}

// RestoreCheckpointFile loads the checkpoint file at path into an empty
// server, reading it one frame at a time, and keeps the file open as
// the frame cache: until a segment ingests, the next checkpoint copies
// its frame from there. Close releases the file.
//
// Each frame's s1 snapshot decodes straight into a journal-only
// segment — validated exactly as loading a snapshot validates it,
// nothing replayed — over a fresh path table, and one pass over the
// journals rebuilds the live per-file rows; only when every frame has
// decoded is any of it installed, so a damaged checkpoint leaves the
// server as it was. The restored daemon's report is byte-identical to
// the pre-restart daemon's, and ingest continues from where the
// checkpoint was cut.
func (s *Server) RestoreCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil {
		err = s.restore(f, fi.Size(), f)
	}
	if err != nil {
		f.Close()
	}
	return err
}

// restore loads the checkpoint in the first size bytes of src; when
// cache is set, src is that file, and it becomes the frame cache.
func (s *Server) restore(src io.ReaderAt, size int64, cache checkpointFile) error {
	head := make([]byte, len(CheckpointHeader))
	if _, err := src.ReadAt(head, 0); err != nil || string(head) != CheckpointHeader {
		return errors.New("serve: not a migd checkpoint (bad header)")
	}
	paths := trace.NewFileTable()
	codec := core.NewSegmentCodec(paths)
	var segs []*segment
	var buf []byte
	off := int64(len(head))
	in := bufio.NewReaderSize(io.NewSectionReader(src, off, size-off), 1<<16)
	for i := 0; off < size; i++ {
		frame, payload, err := dist.ReadFrame(in, size-off, buf)
		if err != nil {
			return fmt.Errorf("serve: restore segment %d: %w", i, err)
		}
		p, err := decodeSegment(codec, payload)
		if err != nil {
			return fmt.Errorf("serve: restore segment %d: %w", i, err)
		}
		sg := &segment{p: p}
		if cache != nil {
			sg.frame = frameLoc{off, int64(len(frame))}
		}
		segs = append(segs, sg)
		off += int64(len(frame))
		buf = frame
	}
	files := make([]fileRow, paths.Len())
	for _, sg := range segs {
		sg.p.VisitRefs(func(id trace.FileID, op trace.Op, start time.Time, size units.Bytes) {
			files[id].observe(op, start.UnixNano(), size)
		})
	}

	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if s.records.Load() != 0 || s.paths.Len() != 0 {
		return errors.New("serve: restore into a non-empty server")
	}
	s.paths, s.files = paths, files
	for _, sg := range segs {
		sg.seq = s.segSeq.Add(1)
		first, _ := sg.p.Bounds()
		sh := s.getShard(s.shardKey(first))
		sh.segs = append(sh.segs, sg)
		sh.noteBounds(sg)
		s.segCount.Add(1)
		s.records.Add(sg.p.Records())
		s.errRecords.Add(sg.p.Errors())
	}
	if cache != nil {
		if s.cache != nil {
			s.cache.Close()
		}
		s.cache = cache
	}
	return nil
}

// Close releases the frame cache. A checkpoint after Close encodes
// every segment.
func (s *Server) Close() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.cache == nil {
		return nil
	}
	err := s.cache.Close()
	s.cache = nil
	return err
}

// decodeSegment rebuilds one segment from a checkpoint frame payload.
func decodeSegment(codec *core.SegmentCodec, payload []byte) (*core.Partial, error) {
	firstNs, n := binary.Varint(payload)
	if n <= 0 {
		return nil, errors.New("bad first-bound varint")
	}
	payload = payload[n:]
	lastNs, n := binary.Varint(payload)
	if n <= 0 {
		return nil, errors.New("bad last-bound varint")
	}
	var first, last time.Time
	if firstNs != 0 {
		first = time.Unix(0, firstNs).UTC()
	}
	if lastNs != 0 {
		last = time.Unix(0, lastNs).UTC()
	}
	return codec.Decode(payload[n:], first, last)
}

// handleCheckpoint serves POST /v1/checkpoint: an explicit checkpoint,
// regardless of the cadence, answered with what it cost.
func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	cost, err := s.checkpoint()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int64{
		"segments":    s.segCount.Load(),
		"checkpoints": s.checkpoints.Load(),
		"encoded":     cost.encoded,
		"copied":      cost.copied,
		"bytes":       cost.bytes,
	})
}
