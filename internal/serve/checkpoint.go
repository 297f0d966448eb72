package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/pool"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// migd checkpoints each segment as one dist wire frame. The frame's
// payload is the segment's record-time bounds (two signed varints of
// UnixNano — the s1 snapshot does not carry error-record bounds, so the
// checkpoint does) followed by the segment's s1 snapshot. The CRC on
// every frame means a torn or bit-flipped checkpoint fails loudly at
// restore instead of resuming from silently wrong state.
//
// In memory (EncodeCheckpoint, RestoreCheckpoint) a checkpoint is the c1
// form: CheckpointHeader, then every segment's frame in trace order. On
// disk it is a directory: one entry file per time stripe (shard),
// holding that stripe's frames in trace order, and a generation record
// naming the live entries in stripe order — so the entries the record
// lists, read in order after the header, are the c1 bytes. A checkpoint
// writes an entry only for a stripe that ingested since its entry was
// written, each under a name the record in place does not use, through
// dist's one durable write path: the entries of one captured version
// are encoded into temporaries (dist.Stage) with no lock held, and made
// durable (dist.Commit: fsync, rename, one directory fsync); then the
// record is written the same way; then the checkpoint prunes
// the entries the record does not name. Until the record's rename the
// previous record still names a complete set of entries, so a crash at
// any step leaves the previous checkpoint or the new one, never a mix.
//
// Encoding and decoding use every core: ckptWorkers goroutines, each
// with a codec and a frame buffer of its own, encode the dirty stripes
// of a checkpoint, and decode the entries (or, in memory, the frames)
// of a restore, whose paths one more goroutine interns into the fresh
// path table in the record's order (see restorer). Each stripe's bytes
// are the ones a single goroutine writes, and a restore installs its
// segments in the record's order, all or nothing.

// CheckpointHeader opens every in-memory (c1) migd checkpoint.
const CheckpointHeader = "#migd-checkpoint c1\n"

// generationFile is the generation record's name in the checkpoint
// directory; generationVersion versions its layout.
const (
	generationFile    = "generation"
	generationVersion = "g1"
)

// entrySuffix ends every stripe entry's file name.
const entrySuffix = ".frames"

// ckptWorkers is how many goroutines encode a checkpoint's stripes or
// decode a restore's entries. An encoder holds one segment's frame and
// a codec's table-sized scratch, a decoder one entry's bytes, so the
// count bounds what a checkpoint or a restore holds besides the state
// itself.
const ckptWorkers = 4

// generation is the generation record: this JSON inside one dist
// frame.
type generation struct {
	Version string  `json:"version"`
	Gen     int64   `json:"generation"`
	Entries []entry `json:"entries"` // in stripe order
}

// entry is one stripe's entry file in a generation record.
type entry struct {
	Stripe int64  `json:"stripe"`
	File   string `json:"file"`
}

// entryName names stripe k's entry as checkpoint generation gen writes
// it.
func entryName(k, gen int64) string { return fmt.Sprintf("s%d-g%d%s", k, gen, entrySuffix) }

// checkpointCost is what one checkpoint wrote: the stripe entries, the
// segments serialized into them, and their bytes.
type checkpointCost struct {
	stripes, encoded, bytes int64
}

// written is a stripe entry a checkpoint wrote: the stripe as the cut
// captured it, and its file.
type written struct {
	stripeCut
	file string
}

// frameEncoder serializes a version's segments into checkpoint frames
// through one codec and two reused buffers, so it holds at most one
// segment's frame at a time.
type frameEncoder struct {
	paths   []string // the version's path view
	codec   *core.SegmentCodec
	payload bytes.Buffer
	frame   []byte
	out     *bufio.Writer // an entry's buffered writer, when the encoder writes entries
	part    bytes.Buffer  // a stripe's frames, when the encoder writes them to memory
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
	if err := e.codec.Write(&e.payload, p, e.paths); err != nil {
		return nil, err
	}
	e.frame = dist.AppendFrame(e.frame[:0], e.payload.Bytes())
	return e.frame, nil
}

// writeAll writes the frames of segs to w, one at a time, and returns
// their length.
func (e *frameEncoder) writeAll(w io.Writer, segs []*core.Partial) (n int64, err error) {
	for i, p := range segs {
		frame, err := e.encode(p)
		if err == nil {
			_, err = w.Write(frame)
		}
		if err != nil {
			return n, fmt.Errorf("segment %d: %w", i, err)
		}
		n += int64(len(frame))
	}
	return n, nil
}

// encodeEach runs job(e, i) for every i below n on ckptWorkers
// goroutines, each with a frame encoder of its own over v around one of
// the server's codecs; the error is the lowest-indexed job's. The
// caller holds ckptMu.
func (s *Server) encodeEach(v version, n int, job func(e *frameEncoder, i int) error) error {
	var next atomic.Int32
	return pool.Run(context.Background(), ckptWorkers, pool.Indices(n), func() func(int) (struct{}, error) {
		e := &frameEncoder{paths: v.paths, codec: s.codecs[next.Add(1)-1]}
		return func(i int) (struct{}, error) { return struct{}{}, job(e, i) }
	}, nil)
}

// EncodeCheckpoint serializes the daemon's full segment state in the c1
// checkpoint form, encoding every segment of one captured version —
// each stripe's frames on one of ckptWorkers goroutines, joined in
// stripe order. It waits for a checkpoint in flight, whose codecs it
// shares.
func (s *Server) EncodeCheckpoint() ([]byte, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	v := s.capture(nil)
	parts := make([][]byte, 1+len(v.stripes))
	parts[0] = []byte(CheckpointHeader)
	err := s.encodeEach(v, len(v.stripes), func(e *frameEncoder, i int) error {
		e.part.Reset()
		_, err := e.writeAll(&e.part, v.stripes[i].segs)
		parts[1+i] = bytes.Clone(e.part.Bytes())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint %w", err)
	}
	return bytes.Join(parts, nil), nil
}

// Checkpoint writes the daemon's state to the directory
// Config.CheckpointPath, creating it if need be: the entries of the
// stripes that ingested since the last checkpoint, then the generation
// record, then the prune. Checkpoints are serialised — a call that
// finds another in flight waits for it and then takes its own — and
// ingest is stalled only while the checkpoint captures the version it
// writes.
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

// checkpointLocked is checkpoint with ckptMu already held. A stripe
// learns its new entry only once the record naming it is in place, so a
// failed checkpoint leaves every stripe it did not commit to be written
// again by the next.
func (s *Server) checkpointLocked() (checkpointCost, error) {
	dir := s.cfg.CheckpointPath
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return checkpointCost{}, fmt.Errorf("serve: checkpoint: %w", err)
	}
	// The generation is one past the record in place, so no entry that
	// record names is ever overwritten. Without a readable record, the
	// entries it named may be gone with it (the directory emptied under
	// the daemon): every stripe is written.
	disk, err := readGeneration(dir)
	rec, staged, wrote, pending, cost, err := s.stageStripes(dir, disk.Gen+1, err != nil)
	if err == nil {
		err = dist.Commit(dir, staged)
	}
	if err == nil {
		err = writeGeneration(dir, rec)
	}
	if err != nil {
		return cost, fmt.Errorf("serve: checkpoint: %w", err)
	}
	for _, w := range wrote {
		w.sh.entry, w.sh.saved = w.file, w.records
	}
	s.prune(dir, rec)
	s.checkpoints.Add(1)
	s.sinceCkpt.Add(-pending)
	return cost, nil
}

// stageStripes captures a version — the cut — with the segments of
// every stripe that ingested since its entry was written — of every
// stripe, when all is set — and encodes each such stripe's entry into a
// staged temporary, ckptWorkers stripes at a time, each streamed one
// segment's frame at a time. It
// returns generation gen's record naming each stripe's entry, the
// staged entries (for dist.Commit, in stripe order), the stripes they
// belong to, and the count of records ingested since the last
// checkpoint, as of the cut. On a failure nothing stays staged.
func (s *Server) stageStripes(dir string, gen int64, all bool) (rec generation, staged []*dist.Staged, wrote []written, pending int64, cost checkpointCost, err error) {
	v := s.capture(func(sh *shard) bool { return all || sh.entry == "" || sh.records != sh.saved })
	rec = generation{Version: generationVersion, Gen: gen}
	for _, c := range v.stripes {
		e := entry{Stripe: c.sh.key, File: c.sh.entry}
		if c.segs != nil {
			e.File = entryName(c.sh.key, gen)
			wrote = append(wrote, written{c, e.File})
		}
		rec.Entries = append(rec.Entries, e)
	}
	staged = make([]*dist.Staged, len(wrote))
	costs := make([]checkpointCost, len(wrote))
	err = s.encodeEach(v, len(wrote), func(e *frameEncoder, i int) error {
		w := wrote[i]
		var err error
		staged[i], err = dist.Stage(filepath.Join(dir, w.file), func(f io.Writer) error {
			if e.out == nil {
				e.out = bufio.NewWriterSize(f, 1<<16)
			} else {
				e.out.Reset(f)
			}
			n, err := e.writeAll(e.out, w.segs)
			costs[i] = checkpointCost{stripes: 1, encoded: int64(len(w.segs)), bytes: n}
			if err != nil {
				return err
			}
			return e.out.Flush()
		})
		if err != nil {
			return fmt.Errorf("entry %s: %w", w.file, err)
		}
		return nil
	})
	for _, c := range costs {
		cost.stripes += c.stripes
		cost.encoded += c.encoded
		cost.bytes += c.bytes
	}
	if err != nil {
		dist.Discard(slices.DeleteFunc(staged, func(f *dist.Staged) bool { return f == nil }))
		return rec, nil, nil, 0, cost, err
	}
	return rec, staged, wrote, v.pending, cost, nil
}

// readGeneration reads and checks the generation record in dir. Every
// error names the file; a missing record's wraps fs.ErrNotExist.
func readGeneration(dir string) (rec generation, err error) {
	path := filepath.Join(dir, generationFile)
	raw, err := dist.ReadFrameFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Version != generationVersion {
		return rec, fmt.Errorf("%s: unknown generation version %q (want %q)", path, rec.Version, generationVersion)
	}
	for i, e := range rec.Entries {
		if filepath.Base(e.File) != e.File || i > 0 && e.Stripe <= rec.Entries[i-1].Stripe {
			return rec, fmt.Errorf("%s: entry %d (%q, stripe %d) is not a file of the directory in stripe order", path, i, e.File, e.Stripe)
		}
	}
	return rec, nil
}

// writeGeneration writes rec as the directory's generation record.
func writeGeneration(dir string, rec generation) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return dist.WriteFrameFile(filepath.Join(dir, generationFile), b)
}

// prune removes the entry files rec does not name: those it replaced,
// and those a failed or interrupted checkpoint left. A failure is
// logged, not returned — the record is already in place, and the next
// checkpoint prunes again.
func (s *Server) prune(dir string, rec generation) {
	live := make(map[string]bool, len(rec.Entries))
	for _, e := range rec.Entries {
		live[e.File] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		s.logf("serve: checkpoint prune: %v", err)
		return
	}
	for _, de := range ents {
		if name := de.Name(); strings.HasSuffix(name, entrySuffix) && !live[name] {
			if err := dist.Disk.Remove(filepath.Join(dir, name)); err != nil {
				s.logf("serve: checkpoint prune: %v", err)
			}
		}
	}
}

// CheckpointIfChanged is Checkpoint for the callers with nothing new to
// say — a wall-clock tick, a shutdown: it skips the write, reporting
// false, when no record has been ingested since the last successful
// checkpoint (or the restore) and the generation record is still in
// place.
func (s *Server) CheckpointIfChanged() (wrote bool, err error) {
	if s.sinceCkpt.Load() == 0 {
		if _, err := os.Stat(filepath.Join(s.cfg.CheckpointPath, generationFile)); err == nil {
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

// restorer restores a checkpoint into a fresh path table in two lanes:
// ckptWorkers goroutines decode frames, each with a codec of its own,
// into segments no table indexes yet, and one more goroutine binds them
// to the table (core.SegmentCodec.Bind) in checkpoint order, so the
// table numbers the files in trace order, as a one-goroutine restore
// would, and observes each segment's references into the per-file rows
// as it binds it. bufs holds the read buffers of a directory restore: a
// worker takes one for each entry (or starts one) and the binding lane
// hands it back once the entry's paths are interned, so there are no
// more buffers than decodes in flight — the workers and one more — and
// nothing decoded keeps a view of one: paths are interned, journals,
// sums and latency samples decode into memory of their own.
type restorer struct {
	paths *trace.SharedTable
	bind  *core.SegmentCodec
	segs  []*core.Partial
	files []fileRow
	bufs  chan []byte
}

func newRestorer() *restorer {
	paths := trace.NewSharedTable()
	return &restorer{paths: paths, bind: core.NewSegmentCodec(paths), bufs: make(chan []byte, ckptWorkers+1)}
}

// decoded is one frame's segment as a worker decoded it, with the path
// table Bind interns.
type decoded struct {
	p     *core.Partial
	paths core.SnapshotPaths
}

// add binds segments decoded from one entry (or, in memory, one frame),
// observes their references into the per-file rows and appends them to
// the restore, in order; segs[0] is segment first of whatever an error
// names. Only the binding lane extends the table, so it reads the
// table's length without its lock.
func (r *restorer) add(segs []decoded, first int) error {
	for k, d := range segs {
		if err := r.bind.Bind(d.p, d.paths); err != nil {
			return fmt.Errorf("segment %d: %w", first+k, err)
		}
		n := r.paths.Len()
		if n > cap(r.files) {
			// Doubled, as ingest's rows are: growing by append's quarter
			// copies them over many times.
			r.files = slices.Grow(r.files, max(n, 2*cap(r.files))-len(r.files))
		}
		r.files = r.files[:n]
		d.p.VisitRefs(func(id trace.FileID, op trace.Op, start int64, size units.Bytes) {
			r.files[id].observe(op, start, size)
		})
		r.segs = append(r.segs, d.p)
	}
	return nil
}

// frames decodes every frame in data, in order.
func frames(codec *core.SegmentCodec, data []byte) ([]decoded, error) {
	var segs []decoded
	for i := 0; len(data) > 0; i++ {
		payload, rest, err := dist.NextFrame(data)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		p, paths, err := decodeSegment(codec, payload)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		segs = append(segs, decoded{p, paths})
		data = rest
	}
	return segs, nil
}

// RestoreCheckpoint loads a c1 checkpoint held in memory into an empty
// server; see RestoreCheckpointDir. The frames are split off in order
// and decoded framesPerJob at a time on ckptWorkers goroutines. Every
// restored stripe is written at the next checkpoint.
func (s *Server) RestoreCheckpoint(data []byte) error {
	if !bytes.HasPrefix(data, []byte(CheckpointHeader)) {
		return errors.New("serve: not a migd checkpoint (bad header)")
	}
	var payloads [][]byte
	for data = data[len(CheckpointHeader):]; len(data) > 0; {
		payload, rest, err := dist.NextFrame(data)
		if err != nil {
			return fmt.Errorf("serve: restore segment %d: %w", len(payloads), err)
		}
		payloads, data = append(payloads, payload), rest
	}
	// A worker decodes framesPerJob frames at a time: enough that handing
	// the batch to the binding lane costs little beside decoding it.
	const framesPerJob = 32
	r := newRestorer()
	jobs := (len(payloads) + framesPerJob - 1) / framesPerJob
	err := pool.Run(context.Background(), ckptWorkers, pool.Indices(jobs), func() func(int) ([]decoded, error) {
		c := core.NewSegmentCodec(r.paths)
		return func(j int) ([]decoded, error) {
			from := j * framesPerJob
			segs := make([]decoded, min(framesPerJob, len(payloads)-from))
			for k := range segs {
				p, paths, err := decodeSegment(c, payloads[from+k])
				if err != nil {
					return nil, fmt.Errorf("segment %d: %w", from+k, err)
				}
				segs[k] = decoded{p, paths}
			}
			return segs, nil
		}
	}, func(segs []decoded) error { return r.add(segs, len(r.segs)) })
	if err != nil {
		return fmt.Errorf("serve: restore %w", err)
	}
	return s.install(r, nil)
}

// RestoreCheckpointDir loads the checkpoint directory at dir into an
// empty server: the generation record, then each entry it names, read
// whole and decoded frame by frame, ckptWorkers entries at a time. A
// missing directory, or one without a record, is an error wrapping
// fs.ErrNotExist — a first start. Anything else that fails — a file at
// dir, an unknown record version, a damaged entry — is an error naming
// the file (the first damaged entry in the record's order, whichever
// worker meets one first), and installs nothing.
//
// Each frame's s1 snapshot decodes straight into a journal-only
// segment — validated exactly as loading a snapshot validates it,
// nothing replayed — over a fresh path table, and the live per-file
// rows are rebuilt from each segment's journal as it is bound. The
// restored daemon's
// report is byte-identical to the pre-restart daemon's, ingest
// continues from where the checkpoint was cut, and, unless the daemon
// restarted at another stripe width, each stripe keeps its entry: the
// next checkpoint writes only the stripes that ingest since.
func (s *Server) RestoreCheckpointDir(dir string) error {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return fmt.Errorf("serve: restore %s: not a checkpoint directory (a c1 checkpoint file?)", dir)
	}
	return s.restoreDir(dir, newRestorer())
}

// entryDecoded is one stripe entry as a worker decoded it: the entry's
// index in the record, its segments, and the buffer their path tables
// are views into.
type entryDecoded struct {
	i    int
	segs []decoded
	buf  []byte
}

// restoreDir is RestoreCheckpointDir through the given restorer.
func (s *Server) restoreDir(dir string, r *restorer) error {
	rec, err := readGeneration(dir)
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	keep := true
	err = pool.Run(context.Background(), ckptWorkers, pool.Indices(len(rec.Entries)), func() func(int) (entryDecoded, error) {
		c := core.NewSegmentCodec(r.paths)
		return func(i int) (entryDecoded, error) {
			path := filepath.Join(dir, rec.Entries[i].File)
			var buf []byte
			select {
			case buf = <-r.bufs:
			default:
			}
			f, err := os.Open(path)
			if err == nil {
				buf, err = readBody(buf, f, 0) // grows only when an entry outruns it
				f.Close()
			}
			var segs []decoded
			if err == nil {
				segs, err = frames(c, buf)
			}
			if err != nil {
				return entryDecoded{}, fmt.Errorf("serve: restore %s: %w", path, err)
			}
			return entryDecoded{i, segs, buf}, nil
		}
	}, func(ed entryDecoded) error {
		e := rec.Entries[ed.i]
		if err := r.add(ed.segs, 0); err != nil {
			return fmt.Errorf("serve: restore %s: %w", filepath.Join(dir, e.File), err)
		}
		select {
		case r.bufs <- ed.buf:
		default: // a buffer more than decodes can be in flight: none is
		}
		// The entries stay the stripes' only while every segment falls
		// in its entry's stripe: not when the daemon restarted at
		// another stripe width.
		for _, d := range ed.segs {
			first, _ := d.p.Bounds()
			keep = keep && s.shardKey(first) == e.Stripe
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !keep {
		rec.Entries = nil
	}
	return s.install(r, rec.Entries)
}

// install installs r's segments and per-file rows, unless the server
// already holds state; each of entries becomes its stripe's current
// entry.
func (s *Server) install(r *restorer, entries []entry) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.paths.Lock()
	defer s.paths.Unlock()
	if s.records.Load() != 0 || s.paths.Len() != 0 {
		return errors.New("serve: restore into a non-empty server")
	}
	s.paths.Interner, s.files = r.paths.Interner, r.files
	for _, p := range r.segs {
		first, _ := p.Bounds()
		sh := s.getShard(s.shardKey(first))
		sh.add(p, true)
		sh.records += p.Records()
		s.records.Add(p.Records())
		s.errRecords.Add(p.Errors())
	}
	for _, e := range entries {
		if i, ok := slices.BinarySearchFunc(s.shards, e.Stripe, byKey); ok {
			sh := s.shards[i]
			sh.entry, sh.saved = e.File, sh.records
		}
	}
	return nil
}

// decodeSegment decodes one segment, not yet bound to a table, from a
// checkpoint frame payload.
func decodeSegment(codec *core.SegmentCodec, payload []byte) (*core.Partial, core.SnapshotPaths, error) {
	var none core.SnapshotPaths
	firstNs, n := binary.Varint(payload)
	if n <= 0 {
		return nil, none, errors.New("bad first-bound varint")
	}
	payload = payload[n:]
	lastNs, n := binary.Varint(payload)
	if n <= 0 {
		return nil, none, errors.New("bad last-bound varint")
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
		"segments":    s.StatsNow().Segments,
		"checkpoints": s.checkpoints.Load(),
		"stripes":     cost.stripes,
		"encoded":     cost.encoded,
		"bytes":       cost.bytes,
	})
}
