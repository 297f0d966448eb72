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
// from silently wrong state; segments untouched since the previous
// checkpoint reuse their cached frame bytes and are never re-serialized.

// CheckpointHeader opens every migd checkpoint file.
const CheckpointHeader = "#migd-checkpoint c1\n"

// encodeSegments brings every segment's cached checkpoint frame up to
// date — only segments touched since their last encoding are
// serialized, all through one codec (one WireWriter, one payload
// buffer) — and returns the frames in trace order with the count of
// records ingested since the last checkpoint, as of this cut. A cached
// frame is immutable once built, so the result stays valid after the
// lock is released.
func (s *Server) encodeSegments() (frames [][]byte, pending int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := s.orderedSegments()
	frames = make([][]byte, len(segs))
	codec := core.NewSegmentCodec(s.paths)
	var payload bytes.Buffer
	for i, sg := range segs {
		if sg.dirty || sg.enc == nil {
			if sg.enc, err = encodeSegment(codec, &payload, sg.p); err != nil {
				return nil, 0, fmt.Errorf("serve: checkpoint segment %d: %w", i, err)
			}
			sg.dirty = false
		}
		frames[i] = sg.enc
	}
	return frames, s.sinceCkpt.Load(), nil
}

// encodeSegment builds one segment's checkpoint frame — its two bounds,
// then its s1 snapshot — using payload as scratch.
func encodeSegment(codec *core.SegmentCodec, payload *bytes.Buffer, p *core.Partial) ([]byte, error) {
	first, last := p.Bounds()
	var bounds [2 * binary.MaxVarintLen64]byte
	n := binary.PutVarint(bounds[:], first.UnixNano())
	n += binary.PutVarint(bounds[n:], last.UnixNano())
	payload.Reset()
	payload.Write(bounds[:n])
	if err := codec.Write(payload, p); err != nil {
		return nil, err
	}
	return dist.EncodeFrame(payload.Bytes()), nil
}

// EncodeCheckpoint serializes the daemon's full segment state in the
// checkpoint format.
func (s *Server) EncodeCheckpoint() ([]byte, error) {
	frames, _, err := s.encodeSegments()
	if err != nil {
		return nil, err
	}
	size := len(CheckpointHeader)
	for _, f := range frames {
		size += len(f)
	}
	out := bytes.NewBuffer(make([]byte, 0, size))
	_ = writeFramesTo(out, frames) // a bytes.Buffer write cannot fail
	return out.Bytes(), nil
}

// writeFramesTo writes a checkpoint: the header, then every frame.
func writeFramesTo(w io.Writer, frames [][]byte) error {
	if _, err := io.WriteString(w, CheckpointHeader); err != nil {
		return err
	}
	for _, fr := range frames {
		if _, err := w.Write(fr); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint writes the daemon's state to Config.CheckpointPath,
// atomically: the frames stream into a temporary sibling first, which is
// renamed over the target, so a crash mid-write leaves the previous
// checkpoint intact. Checkpoints are serialised — cut, write, rename and
// the pending-record count all happen under one mutex — so a call that
// finds another in flight waits for it and then takes its own; ingest
// is stalled only for the cut.
func (s *Server) Checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return errors.New("serve: no checkpoint path configured")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked is Checkpoint with ckptMu already held.
func (s *Server) checkpointLocked() error {
	frames, pending, err := s.encodeSegments()
	if err != nil {
		return err
	}
	err = dist.WriteFileAtomic(s.cfg.CheckpointPath, func(f io.Writer) error {
		w := bufio.NewWriterSize(f, 1<<16)
		if err := writeFramesTo(w, frames); err != nil {
			return err
		}
		return w.Flush()
	})
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	s.checkpoints.Add(1)
	s.sinceCkpt.Add(-pending)
	return nil
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
	if err := s.checkpointLocked(); err != nil {
		s.logf("migd: cadence checkpoint failed: %v", err)
	}
}

// RestoreCheckpoint loads a checkpoint produced by EncodeCheckpoint
// into an empty server. Each frame's s1 snapshot decodes straight into
// a journal-only segment — validated exactly as loading a snapshot
// validates it, nothing replayed — over a fresh path table, and one pass
// over the journals rebuilds the live per-file rows; only when every
// frame has decoded is any of it installed, so a damaged checkpoint
// leaves the server as it was. The restored daemon's report is
// byte-identical to the pre-restart daemon's, and ingest continues from
// where the checkpoint was cut.
func (s *Server) RestoreCheckpoint(data []byte) error {
	if len(data) < len(CheckpointHeader) || string(data[:len(CheckpointHeader)]) != CheckpointHeader {
		return errors.New("serve: not a migd checkpoint (bad header)")
	}
	rest := data[len(CheckpointHeader):]
	paths := trace.NewInterner()
	codec := core.NewSegmentCodec(paths)
	var segs []*segment
	for i := 0; len(rest) > 0; i++ {
		payload, r, err := dist.NextFrame(rest)
		if err != nil {
			return fmt.Errorf("serve: restore segment %d: %w", i, err)
		}
		p, err := decodeSegment(codec, payload)
		if err != nil {
			return fmt.Errorf("serve: restore segment %d: %w", i, err)
		}
		// Cache the frame exactly as read: an untouched restored segment
		// re-checkpoints byte-identically without re-serializing.
		segs = append(segs, &segment{p: p, enc: append([]byte(nil), rest[:len(rest)-len(r)]...)})
		rest = r
	}
	files := make([]fileRow, paths.Len())
	for _, sg := range segs {
		sg.p.VisitRefs(func(id trace.FileID, op trace.Op, start time.Time, size units.Bytes) {
			files[id].observe(op, start.UnixNano(), size)
		})
	}

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
	return nil
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
// regardless of the cadence.
func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	if err := s.Checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]int64{
		"segments":    s.segCount.Load(),
		"checkpoints": s.checkpoints.Load(),
	})
}
