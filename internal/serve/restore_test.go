package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/device"
	"filemig/internal/dist"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// replayingRestore is the restore the daemon shipped with, kept as the
// reference the decoding restore is held to: every frame's snapshot is
// loaded by core.MergeSnapshots — which replays the journal, record by
// record, into a full analysis and so rejects whatever the replay
// rejects — and the replayed analysis, re-serialized, stands for the
// segment. It returns the checkpoint those analyses write: restoring
// that is restoring what the replay rebuilt.
func replayingRestore(data []byte) ([]byte, error) {
	if len(data) < len(CheckpointHeader) || string(data[:len(CheckpointHeader)]) != CheckpointHeader {
		return nil, errors.New("not a migd checkpoint (bad header)")
	}
	out := []byte(CheckpointHeader)
	rest := data[len(CheckpointHeader):]
	for i := 0; len(rest) > 0; i++ {
		payload, r, err := dist.NextFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		rest = r
		_, n := binary.Varint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("segment %d: bad first-bound varint", i)
		}
		_, m := binary.Varint(payload[n:])
		if m <= 0 {
			return nil, fmt.Errorf("segment %d: bad last-bound varint", i)
		}
		acc, err := core.MergeSnapshots(bytes.NewReader(payload[n+m:]))
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		frame := bytes.NewBuffer(append([]byte(nil), payload[:n+m]...))
		if err := acc.WriteSnapshot(frame); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		out = append(out, dist.EncodeFrame(frame.Bytes())...)
	}
	return out, nil
}

// reencode serializes every segment afresh, in restore order.
func reencode(t testing.TB, s *Server) []byte {
	t.Helper()
	s.mu.Lock()
	segs := s.orderedSegments()
	s.mu.Unlock()
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	enc := newFrameEncoder(core.NewSegmentCodec(s.paths))
	out := []byte(CheckpointHeader)
	for _, sg := range segs {
		frame, err := enc.encode(sg.p)
		if err != nil {
			t.Fatalf("re-encoding segment %d: %v", sg.seq, err)
		}
		out = append(out, frame...)
	}
	return out
}

// tinyCheckpoint builds a small valid checkpoint: a few segments, some
// out of order, error records included.
func tinyCheckpoint(t testing.TB) []byte {
	t.Helper()
	base := time.Date(1992, 1, 6, 9, 0, 0, 0, time.UTC)
	s, err := NewServer(Config{Now: func() time.Time { return base.AddDate(0, 1, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(day, n int) []trace.Record {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{
				Start:   base.AddDate(0, 0, day).Add(time.Duration(i) * time.Minute),
				Op:      trace.Op(i % 2),
				Device:  device.Class(i % 3),
				Startup: time.Duration(i%4) * time.Second,
				Size:    units.Bytes(4096 + (i%2)*(10<<30)),
				MSSPath: fmt.Sprintf("/mss/u%d/f%d", day%2, i%4), LocalPath: "/tmp/x",
			}
			if i%5 == 4 {
				recs[i].Err = trace.ErrNoFile
			}
		}
		return recs
	}
	for _, day := range []int{3, 1, 2, 20, 1} {
		s.Ingest(batch(day, 6+day%3))
	}
	data, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withoutStart returns a checkpoint frame payload with its snapshot's
// snapHasStart flag cleared — the flags byte follows the snapshot header
// line at off — and the start varint the flag announced cut out.
func withoutStart(payload []byte, off int) []byte {
	flags := off + len(trace.SnapshotHeader) + 1
	_, startLen := binary.Uvarint(payload[flags+1:])
	out := append(append([]byte(nil), payload[:flags]...), 0)
	return append(out, payload[flags+1+startLen:]...)
}

// firstSnapshot returns the offset in a checkpoint of the first frame's
// s1 snapshot (past the header, the frame head and the two bounds) and
// the frame's payload.
func firstSnapshot(t testing.TB, ckpt []byte) (off int, payload []byte) {
	t.Helper()
	payload, _, err := dist.NextFrame(ckpt[len(CheckpointHeader):])
	if err != nil {
		t.Fatal(err)
	}
	_, n := binary.Varint(payload)
	_, m := binary.Varint(payload[n:])
	return n + m, payload
}

// FuzzMigdRestoreCheckpoint holds the decoding restore to the replaying
// one: arbitrary bytes — taken as a checkpoint file, and again as the
// payload of its one frame, which gets the fuzzer past the CRC — are
// accepted by RestoreCheckpoint exactly when the reference accepts
// them, and an accepted checkpoint restores to the state the replayed
// analyses serialize to: same report, same counters, same re-encoded
// bytes.
func FuzzMigdRestoreCheckpoint(f *testing.F) {
	valid := tinyCheckpoint(f)
	f.Add(valid)
	off, payload := firstSnapshot(f, valid)
	f.Add(payload)
	f.Add(withoutStart(payload, off)) // snapHasStart cleared over a non-empty journal
	f.Add(valid[:len(valid)-9])       // truncated frame
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x10 // the last frame's CRC
	f.Add(flipped)
	f.Add([]byte(CheckpointHeader))

	// The calendar origin is pinned so that the length of the report's
	// hourly series is a function of the journal times alone, which
	// reportable can see.
	cfg := Config{
		Opts: core.Options{Start: time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)},
		Now:  func() time.Time { return time.Date(1993, 1, 1, 0, 0, 0, 0, time.UTC) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		framed := append([]byte(CheckpointHeader), dist.EncodeFrame(data)...)
		for _, ckpt := range [][]byte{data, framed} {
			s, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotErr := s.RestoreCheckpoint(ckpt)
			replayed, wantErr := replayingRestore(ckpt)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("decoding restore: %v; replaying restore: %v", gotErr, wantErr)
			}
			if gotErr != nil {
				if st := s.StatsNow(); st != (Stats{}) {
					t.Fatalf("failed restore left state behind: %+v", st)
				}
				continue
			}
			ref, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.RestoreCheckpoint(replayed); err != nil {
				t.Fatalf("the replayed analyses' own checkpoint does not restore: %v", err)
			}
			if a, b := s.StatsNow(), ref.StatsNow(); a != b {
				t.Fatalf("stats %+v, replaying restore %+v", a, b)
			}
			if !bytes.Equal(reencode(t, s), reencode(t, ref)) {
				t.Fatal("re-encoded checkpoint differs from the replaying restore's")
			}
			if !reportable(s) {
				continue
			}
			got, gotErr := s.Report()
			want, wantErr := ref.Report()
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("report differs from the replaying restore's (errors %v, %v)", gotErr, wantErr)
			}
		}
	})
}

// reportable reports whether folding the restored segments is cheap
// enough for a fuzz iteration: a fuzzed journal can reach centuries past
// the calendar origin, and the report's hourly series — and the
// periodogram over it — is as long as that reach.
func reportable(s *Server) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := true
	for _, sg := range s.orderedSegments() {
		sg.p.VisitRefs(func(_ trace.FileID, _ trace.Op, start int64, _ units.Bytes) {
			ok = ok && time.Unix(0, start).UTC().Year() < 1994
		})
	}
	return ok
}

// TestMigdRestoreRejects spells out the rejections the fuzz seeds stand
// for, by message: the start-instant check only the replay used to make,
// a path table that repeats itself, a torn frame, a flipped CRC.
func TestMigdRestoreRejects(t *testing.T) {
	valid := tinyCheckpoint(t)
	off, payload := firstSnapshot(t, valid)
	noStart := withoutStart(payload, off)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x10
	for _, tc := range []struct {
		name, want string
		ckpt       []byte
	}{
		{"no-start", "journal entries present but no start instant", append([]byte(CheckpointHeader), dist.EncodeFrame(noStart)...)},
		{"truncated", "truncated", valid[:len(valid)-9]},
		{"crc", "crc", flipped},
		{"header", "bad header", valid[1:]},
	} {
		s, err := NewServer(Config{Now: time.Now})
		if err != nil {
			t.Fatal(err)
		}
		err = s.RestoreCheckpoint(tc.ckpt)
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
			t.Errorf("%s: restore error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if _, refErr := replayingRestore(tc.ckpt); refErr == nil {
			t.Errorf("%s: the replaying restore accepts it", tc.name)
		}
		if st := s.StatsNow(); st != (Stats{}) {
			t.Errorf("%s: failed restore left state behind: %+v", tc.name, st)
		}
	}
	s, err := NewServer(Config{Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreCheckpoint(valid); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreCheckpoint(valid); err == nil {
		t.Error("restore into a non-empty server succeeded")
	}
}

// TestRestoreCheckpointDirRefuses: a missing directory, or one without
// a generation record, is a first start (fs.ErrNotExist); a c1 file in
// the directory's place, an unknown record version and a damaged
// record each fail with an error naming the file, and install nothing
// (a damaged stripe entry: TestCheckpointFaultFlippedFrame).
func TestRestoreCheckpointDirRefuses(t *testing.T) {
	s, _ := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, err := readGeneration(s.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// damaged copies the checkpoint and hands the copy to mutate.
	damaged := func(mutate func(dir string)) string {
		dir := filepath.Join(t.TempDir(), "ckpt")
		if err := os.CopyFS(dir, os.DirFS(s.cfg.CheckpointPath)); err != nil {
			t.Fatal(err)
		}
		mutate(dir)
		return dir
	}
	write := func(path string, b []byte) {
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	c1File := filepath.Join(t.TempDir(), "migd.ckpt")
	write(c1File, c1)
	future := rec
	future.Version = "g9"
	for _, tc := range []struct {
		name, dir, want string
	}{
		{"c1 file", c1File, c1File + ": not a checkpoint directory"},
		{"version", damaged(func(dir string) {
			if err := writeGeneration(dir, future); err != nil {
				t.Fatal(err)
			}
		}), generationFile + `: unknown generation version "g9"`},
		{"record", damaged(func(dir string) {
			write(filepath.Join(dir, generationFile), []byte("#dist-frame f1\n"))
		}), generationFile + ": dist: bad frame"},
	} {
		r, err := NewServer(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = r.RestoreCheckpointDir(tc.dir)
		if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: restore error %v, want one naming the file: %q", tc.name, err, tc.want)
		}
		if st := r.StatsNow(); st != (Stats{}) {
			t.Errorf("%s: failed restore left state behind: %+v", tc.name, st)
		}
	}
	for _, dir := range []string{filepath.Join(t.TempDir(), "missing"), t.TempDir()} {
		r, err := NewServer(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RestoreCheckpointDir(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("restore from %s: %v, want a first start (fs.ErrNotExist)", dir, err)
		}
	}
}

// answers is everything a daemon says about its state, rendered: the
// report, the stats, and /v1/file for every path, at a pinned instant.
func answers(t testing.TB, s *Server, paths []string, now time.Time) string {
	t.Helper()
	report, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.WriteString(report)
	enc := json.NewEncoder(&out)
	if err := enc.Encode(s.StatsNow()); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/file"+p+"?now="+now.Format(time.RFC3339), nil))
		fmt.Fprintf(&out, "%s %d %s", p, w.Code, w.Body)
	}
	return out.String()
}

// TestMigdRestartKeepsAnswers proves daemon-wide FileIDs never leak into
// an answer. A restored daemon numbers its files in trace order — the
// order the checkpoint's frames name them — where the daemon that wrote
// the checkpoint numbered them in arrival order; fed the same remaining
// batches, some of which extend restored segments, the two must still
// agree on every byte of /v1/report, /v1/stats and /v1/file, and so must
// a third daemon restored from the second's own checkpoint.
func TestMigdRestartKeepsAnswers(t *testing.T) {
	res := daemonFixture(t)
	now := fixedClock(res)
	cfg := Config{
		Opts:          core.Options{Start: res.Config.Start, Days: res.Config.Days},
		ShardDuration: 5 * 24 * time.Hour,
		Now:           now,
	}
	batches := goldenOrder(res.Records)
	cut := len(batches)/2 + 3
	seen := map[string]bool{}
	var paths []string
	for i := range res.Records {
		if r := &res.Records[i]; !seen[r.MSSPath] {
			seen[r.MSSPath] = true
			paths = append(paths, r.MSSPath) // error-only paths too: those must 404 everywhere
		}
	}
	newDaemon := func() *Server {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	steady := newDaemon()
	for _, b := range batches {
		postFramed(t, steady, frameBatch(t, b))
	}

	first := newDaemon()
	for _, b := range batches[:cut] {
		postFramed(t, first, frameBatch(t, b))
	}
	ckpt, err := first.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	second := newDaemon()
	if err := second.RestoreCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	// The numbering really did change, or this test proves nothing.
	renumbered := false
	for _, p := range paths {
		a, okA := first.paths.Lookup(p)
		b, okB := second.paths.Lookup(p)
		if okA != okB {
			t.Fatalf("%s: interned before the restart: %v, after: %v", p, okA, okB)
		}
		renumbered = renumbered || a != b
	}
	if !renumbered {
		t.Fatal("fixture: the restored daemon numbers every file as the first did")
	}
	restoredSegs := second.StatsNow().Segments
	for _, b := range batches[cut:] {
		postFramed(t, second, frameBatch(t, b))
	}
	if grew := second.StatsNow().Segments - restoredSegs; grew >= int64(len(batches)-cut) {
		t.Fatalf("fixture: %d batches after the restart opened %d segments — none extended a restored one", len(batches)-cut, grew)
	}

	want := answers(t, steady, paths, now())
	if got := answers(t, second, paths, now()); got != want {
		t.Fatal("a daemon restarted mid-sequence answers differently from one that never stopped")
	}
	ckpt2, err := second.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if steadyCkpt, err := steady.EncodeCheckpoint(); err != nil || !bytes.Equal(ckpt2, steadyCkpt) {
		t.Fatalf("the restarted daemon's checkpoint differs from the steady one's (err %v)", err)
	}
	third := newDaemon()
	if err := third.RestoreCheckpoint(ckpt2); err != nil {
		t.Fatal(err)
	}
	if got := answers(t, third, paths, now()); got != want {
		t.Fatal("a daemon restored from the restarted daemon's checkpoint answers differently")
	}
}

// TestMigdCheckpointIfChanged covers the shutdown and interval
// checkpoint rule: write when something was ingested since the last
// checkpoint or restore, or when the checkpoint is gone; otherwise
// leave the directory alone.
func TestMigdCheckpointIfChanged(t *testing.T) {
	res := daemonFixture(t)
	ckpt := filepath.Join(t.TempDir(), "migd.ckpt")
	cfg := Config{CheckpointPath: ckpt, Now: fixedClock(res)}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func(s *Server, wantWrote bool, why string) {
		t.Helper()
		wrote, err := s.CheckpointIfChanged()
		if err != nil {
			t.Fatal(err)
		}
		if wrote != wantWrote {
			t.Fatalf("%s: wrote = %v, want %v", why, wrote, wantWrote)
		}
	}
	s.Ingest(res.Records[:300])
	step(s, true, "records ingested, no checkpoint yet")
	step(s, false, "nothing since the checkpoint")
	if err := os.RemoveAll(ckpt); err != nil {
		t.Fatal(err)
	}
	step(s, true, "the checkpoint directory is gone")
	s.Ingest(res.Records[300:400])
	if err := s.Checkpoint(); err != nil { // the explicit endpoint always writes
		t.Fatal(err)
	}
	step(s, false, "nothing since the explicit checkpoint")

	restored, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCheckpointDir(ckpt); err != nil {
		t.Fatal(err)
	}
	record := filepath.Join(ckpt, generationFile)
	stamp := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(record, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	step(restored, false, "nothing since the restore")
	if fi, err := os.Stat(record); err != nil || !fi.ModTime().Equal(stamp) {
		t.Fatalf("a skipped checkpoint touched the generation record (%v, err %v)", fi.ModTime(), err)
	}
	restored.Ingest(res.Records[400:450])
	step(restored, true, "records ingested since the restore")
	if n := restored.StatsNow().Checkpoints; n != 1 {
		t.Fatalf("restored daemon counts %d checkpoints, want 1", n)
	}
}

// TestMigdIngestAckBytes pins the ingest acknowledgement to the bytes
// encoding/json wrote for it before the handler stopped building a map
// per request.
func TestMigdIngestAckBytes(t *testing.T) {
	res := daemonFixture(t)
	s, err := NewServer(Config{Now: fixedClock(res)})
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(res.Records[:40])
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest/batch", bytes.NewReader(frameBatch(t, res.Records[40:140]))))
	want := httptest.NewRecorder()
	writeJSON(want, map[string]int64{"records": 100, "total": 140})
	if w.Code != http.StatusOK || w.Body.String() != want.Body.String() ||
		w.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("ack = %d %q (%s), want %q (%s)", w.Code, w.Body, w.Header().Get("Content-Type"),
			want.Body, want.Header().Get("Content-Type"))
	}
}

// steadyStateIngestAllocs is what one re-POST of a framed b1 batch of
// already-known paths allocates inside the handler, whatever the batch
// length: the mux's routing of the request and the body-limit reader.
// The body read, the decode, the table and row updates, the segment
// append and the ack contribute nothing. (The handler at the parent
// commit spent about 230 on decoding a 100-record batch alone.)
const steadyStateIngestAllocs = 2

// TestMigdIngestSteadyStateAllocs is the daemon's allocation fence: in
// the steady state — every path already in the table, the segment's
// journal with room to spare — ingesting a batch through the HTTP
// handler costs a constant number of allocations, independent of how
// many records the batch holds. The test's own request and recorder are
// measured against a handler that does nothing and subtracted.
func TestMigdIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	res := daemonFixture(t)
	var good []trace.Record
	for _, r := range res.Records {
		if r.OK() {
			good = append(good, r)
		}
	}
	perPost := func(h http.Handler, frame []byte) float64 {
		body := bytes.NewReader(frame)
		post := func() {
			body.Reset(frame)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest/batch", body))
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
		for i := 0; i < 64; i++ { // intern the paths, grow the journal and the pooled scratch
			post()
		}
		return testing.AllocsPerRun(100, post)
	}
	inHandler := func(n int) float64 {
		s, err := NewServer(Config{Now: fixedClock(res)})
		if err != nil {
			t.Fatal(err)
		}
		// Every repeat of the batch starts at the instant the previous one
		// ended, so it extends the stripe's one segment.
		batch := append([]trace.Record(nil), good[:n]...)
		for i := range batch {
			batch[i].Start = batch[0].Start
		}
		frame := frameBatch(t, batch)
		ack := []byte("{}\n")
		idle := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(ack)
		})
		return perPost(s, frame) - perPost(idle, frame)
	}
	small, large := inHandler(100), inHandler(400)
	t.Logf("steady-state allocations per POST inside the handler: %v at 100 records, %v at 400", small, large)
	if small != large {
		t.Errorf("allocations grow with the batch: %v at 100 records, %v at 400", small, large)
	}
	if small > steadyStateIngestAllocs {
		t.Errorf("a steady-state POST allocates %v times inside the handler, want <= %d", small, steadyStateIngestAllocs)
	}
}

// TestMigdConcurrentCheckpoints: eight clients ingest past the record
// cadence at once, so cadence checkpoints fire from many goroutines.
// Every generation record put in place must restore at once — before
// its prune, with ingest running on — into a daemon holding no more
// records than the writer; the pending-record count must never go
// negative (no checkpoint settles records another already settled);
// and the last checkpoint must leave nothing behind but its record and
// entries, and carry the daemon's state.
func TestMigdConcurrentCheckpoints(t *testing.T) {
	res := daemonFixture(t)
	dir := filepath.Join(t.TempDir(), "migd.ckpt")
	cfg := Config{CheckpointPath: dir, CheckpointEvery: 50, Now: fixedClock(res)}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() (*Server, error) {
		r, err := NewServer(cfg)
		if err != nil {
			return nil, err
		}
		return r, r.RestoreCheckpointDir(dir)
	}
	observed := 0
	useDisk(t, recordHook{dist.Disk, func() {
		observed++
		r, err := restore()
		if err != nil {
			t.Errorf("generation %d does not restore: %v", observed, err)
			return
		}
		if got, max := r.StatsNow().Records, s.StatsNow().Records; got > max {
			t.Errorf("generation %d holds %d records, the writer only %d", observed, got, max)
		}
	}})

	const clients, batch = 8, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * batch; i+batch <= len(res.Records); i += clients * batch {
				s.Ingest(res.Records[i : i+batch])
				if n := s.sinceCkpt.Load(); n < 0 {
					t.Errorf("sinceCkpt read %d after a batch", n)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if observed < 2 {
		t.Fatalf("%d generations over %d checkpoints; the cadence never raced", observed, s.StatsNow().Checkpoints)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := s.sinceCkpt.Load(); n != 0 {
		t.Errorf("sinceCkpt = %d after a quiescent checkpoint, want 0", n)
	}
	sameAsEncoded(t, s)
	restored, err := restore()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := restored.Report(); err != nil || got != want {
		t.Errorf("restored report differs from the daemon's (err %v)", err)
	}
}
