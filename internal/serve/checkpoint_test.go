package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// ckptDaemon ingests every goldenOrder batch of the daemon fixture but
// the last into a daemon that checkpoints to a file of its own, and
// returns it with the batch it held back.
func ckptDaemon(t *testing.T) (*Server, []trace.Record) {
	t.Helper()
	res := daemonFixture(t)
	s, err := NewServer(Config{
		Opts:           core.Options{Start: res.Config.Start, Days: res.Config.Days},
		ShardDuration:  5 * 24 * time.Hour,
		CheckpointPath: filepath.Join(t.TempDir(), "migd.ckpt"),
		Now:            fixedClock(res),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	batches := goldenOrder(res.Records)
	for _, b := range batches[:len(batches)-1] {
		s.Ingest(b)
	}
	return s, batches[len(batches)-1]
}

// cachedFrames returns every segment's frame location, in trace order.
func cachedFrames(s *Server) []frameLoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	var locs []frameLoc
	for _, sg := range s.orderedSegments() {
		locs = append(locs, sg.frame)
	}
	return locs
}

// uncached counts the locations that name no frame.
func uncached(locs []frameLoc) (n int64) {
	for _, l := range locs {
		if l.n == 0 {
			n++
		}
	}
	return n
}

// sameAsEncoded fails the test unless the checkpoint file holds exactly
// what EncodeCheckpoint serializes from the daemon's state afresh.
func sameAsEncoded(t *testing.T, s *Server) []byte {
	t.Helper()
	data, err := os.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("checkpoint file (%d bytes) differs from a full EncodeCheckpoint (%d bytes)", len(data), len(want))
	}
	return data
}

// heapInUse is the Go heap after a forced collection; the second one
// empties what sync.Pool kept as victims.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCheckpointHoldsNoFrames is the daemon's heap guard: a checkpoint
// leaves nothing on the heap — no frame of it stays in memory — and a
// daemon restored from the file holds its state and no more, as near as
// 5 % of the checkpoint's size.
func TestCheckpointHoldsNoFrames(t *testing.T) {
	res := canonicalWorkload(t, workload.DefaultConfig(0.02, 1993))
	cfg := Config{
		CheckpointPath: filepath.Join(t.TempDir(), "migd.ckpt"),
		Now:            fixedClock(res),
	}
	// The writer lives in this closure alone, so that the restored
	// daemon below is measured without it.
	state, cost, want := func() (int64, checkpointCost, Stats) {
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, b := range goldenOrder(res.Records) {
			s.Ingest(b)
		}
		state := heapInUse()
		cost, err := s.checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		afterCkpt := heapInUse()
		t.Logf("%d segments, checkpoint %d bytes; heap %d → %d across the checkpoint",
			cost.encoded, cost.bytes, state, afterCkpt)
		if grew := afterCkpt - state; grew >= cost.bytes/20 {
			t.Errorf("a checkpoint left %d bytes on the heap, want < %d (5%% of its %d bytes)", grew, cost.bytes/20, cost.bytes)
		}
		return state, cost, s.StatsNow()
	}()

	r, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RestoreCheckpointFile(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	restored := heapInUse()
	t.Logf("heap %d with the restored daemon in place of the writer", restored)
	if grew := restored - state; grew >= cost.bytes/20 {
		t.Errorf("the restored daemon holds %d bytes more than the one that wrote the file, want < %d", grew, cost.bytes/20)
	}
	if got := r.StatsNow(); got.Records != want.Records || got.Segments != want.Segments {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
}

// TestCheckpointEncodesOnlyDirty: after one more batch, a checkpoint
// serializes only the segments that batch touched, copies the rest
// from the previous file, answers POST /v1/checkpoint with that cost,
// and writes the bytes a full encoding writes.
func TestCheckpointEncodesOnlyDirty(t *testing.T) {
	s, last := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := uncached(cachedFrames(s)); n != 0 {
		t.Fatalf("%d segments left uncached by a checkpoint", n)
	}
	s.Ingest(last)
	locs := cachedFrames(s)
	dirty := uncached(locs)
	if dirty == 0 || dirty == int64(len(locs)) {
		t.Fatalf("fixture: the held-back batch touched %d of %d segments", dirty, len(locs))
	}

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/checkpoint", nil))
	var got map[string]int64
	if err := json.Unmarshal(w.Body.Bytes(), &got); w.Code != http.StatusOK || err != nil {
		t.Fatalf("POST /v1/checkpoint: %d %s (%v)", w.Code, w.Body, err)
	}
	data := sameAsEncoded(t, s)
	want := map[string]int64{
		"segments":    int64(len(locs)),
		"checkpoints": 2,
		"encoded":     dirty,
		"copied":      int64(len(locs)) - dirty,
		"bytes":       int64(len(data)),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("POST /v1/checkpoint: %s = %d, want %d (%s)", k, got[k], v, w.Body)
		}
	}
}

// TestRestoredCheckpointCopiesEverything: a daemon restored from a
// checkpoint file holds every frame's place in it, so its first
// checkpoint encodes nothing and writes the file it restored.
func TestRestoredCheckpointCopiesEverything(t *testing.T) {
	s, _ := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.cfg
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "again.ckpt")
	r, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.RestoreCheckpointFile(s.cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	cost, err := r.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if segs := r.StatsNow().Segments; cost.encoded != 0 || cost.copied != segs {
		t.Errorf("restored daemon's first checkpoint encoded %d and copied %d of %d segments, want 0 and all",
			cost.encoded, cost.copied, segs)
	}
	if data := sameAsEncoded(t, r); !bytes.Equal(data, orig) {
		t.Error("restored daemon's first checkpoint differs from the file it restored")
	}
}

// faultFile is a checkpoint file that fails every write once failAfter
// bytes have been written (never, when it is negative), and runs hook
// before each read — once it is the frame cache, that is during a
// checkpoint's copy, after the cut released mu.
type faultFile struct {
	*os.File
	failAfter int64
	written   int64
	hook      func()
}

var errInjected = errors.New("injected write fault")

func (f *faultFile) WriteAt(b []byte, off int64) (int, error) {
	if f.failAfter >= 0 && f.written+int64(len(b)) > f.failAfter {
		n, _ := f.File.WriteAt(b[:f.failAfter-f.written], off)
		f.written += int64(n)
		return n, errInjected
	}
	n, err := f.File.WriteAt(b, off)
	f.written += int64(n)
	return n, err
}

func (f *faultFile) ReadAt(b []byte, off int64) (int, error) {
	if f.hook != nil {
		f.hook()
	}
	return f.File.ReadAt(b, off)
}

// withTemp makes the daemon's checkpoint temporaries faultFiles built
// by mk from the real file.
func withTemp(s *Server, mk func(*os.File) *faultFile) {
	s.createTemp = func(dir string) (checkpointFile, error) {
		f, err := os.CreateTemp(dir, ".tmp-*")
		if err != nil {
			return nil, err
		}
		return mk(f), nil
	}
}

// TestCheckpointFaultWrite: a checkpoint whose file write fails after k
// bytes — in the cut's encoding or in the copy — leaves the previous
// file, the frame cache and every cached location as they were, and no
// temporary behind; the next checkpoint still copies every clean frame
// and writes the bytes a full encoding writes.
func TestCheckpointFaultWrite(t *testing.T) {
	s, last := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(last)
	locs := cachedFrames(s)
	size := int64(len(prev))
	for _, k := range []int64{0, int64(len(CheckpointHeader)) + 7, size / 3, size - 1} {
		withTemp(s, func(f *os.File) *faultFile { return &faultFile{File: f, failAfter: k} })
		if err := s.Checkpoint(); !errors.Is(err, errInjected) {
			t.Fatalf("k=%d: checkpoint error %v, want the injected fault", k, err)
		}
		if data, err := os.ReadFile(s.cfg.CheckpointPath); err != nil || !bytes.Equal(data, prev) {
			t.Fatalf("k=%d: a failed checkpoint changed the previous file (err %v)", k, err)
		}
		if got := cachedFrames(s); !slices.Equal(got, locs) {
			t.Fatalf("k=%d: a failed checkpoint moved the cached locations", k)
		}
		if entries, _ := os.ReadDir(filepath.Dir(s.cfg.CheckpointPath)); len(entries) != 1 {
			t.Fatalf("k=%d: the checkpoint directory holds %d entries, want the file alone", k, len(entries))
		}
	}
	withTemp(s, func(f *os.File) *faultFile { return &faultFile{File: f, failAfter: -1} })
	cost, err := s.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if dirty := uncached(locs); cost.encoded != dirty || cost.copied != int64(len(locs))-dirty {
		t.Errorf("after the faults: encoded %d, copied %d; want %d and %d", cost.encoded, cost.copied, dirty, int64(len(locs))-dirty)
	}
	sameAsEncoded(t, s)
}

// TestCheckpointFaultFlippedFrame: a bit flipped in a clean frame of
// the frame cache is caught by its CRC on the way over; the segment is
// encoded instead, the log says so, and the file still holds the bytes
// a full encoding writes.
func TestCheckpointFaultFlippedFrame(t *testing.T) {
	s, last := ckptDaemon(t)
	var logged strings.Builder
	s.cfg.Logf = func(format string, args ...any) { logged.WriteString(format) }
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Ingest(last)
	locs := cachedFrames(s)
	dirty := uncached(locs)
	victim := locs[0]
	if victim.n == 0 {
		victim = locs[len(locs)-1]
	}
	if victim.n == 0 {
		t.Fatal("fixture: the held-back batch touched the first and the last segment")
	}
	f, err := os.OpenFile(s.cfg.CheckpointPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	at := victim.off + victim.n/2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x08
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cost, err := s.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cost.encoded != dirty+1 || cost.copied != int64(len(locs))-dirty-1 {
		t.Errorf("encoded %d, copied %d; want %d and %d (the dirty segments and the damaged one encoded)",
			cost.encoded, cost.copied, dirty+1, int64(len(locs))-dirty-1)
	}
	if !strings.Contains(logged.String(), "writing it again") {
		t.Errorf("the damaged frame went unlogged: %q", logged.String())
	}
	sameAsEncoded(t, s)
	if n := uncached(cachedFrames(s)); n != 0 {
		t.Errorf("%d segments uncached after the checkpoint", n)
	}
}

// TestCheckpointFaultIngestAfterCut: a batch that lands after a
// checkpoint's cut — here, while its frames are being copied — is not
// in that checkpoint, and the segment it extended keeps no location in
// it; the next checkpoint encodes that segment alone.
func TestCheckpointFaultIngestAfterCut(t *testing.T) {
	s, last := ckptDaemon(t)
	s.Ingest(last)
	res := daemonFixture(t)
	tail := append([]trace.Record(nil), res.Records[len(res.Records)-1])
	var once sync.Once
	landed := false
	withTemp(s, func(f *os.File) *faultFile {
		return &faultFile{File: f, failAfter: -1, hook: func() {
			once.Do(func() {
				if !s.mu.TryRLock() {
					t.Error("the frame cache is read while the cut holds mu")
					return
				}
				s.mu.RUnlock()
				s.Ingest(tail) // the latest instant: extends the latest stripe's newest segment
				landed = true
			})
		}}
	})
	if err := s.Checkpoint(); err != nil { // from here on the frame cache is a faultFile
		t.Fatal(err)
	}
	before := s.StatsNow()
	cost, err := s.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !landed || cost.encoded != 0 || s.StatsNow().Segments != before.Segments {
		t.Fatalf("fixture: ingest landed %v, the checkpoint encoded %d, segments %d → %d",
			landed, cost.encoded, before.Segments, s.StatsNow().Segments)
	}
	if n := uncached(cachedFrames(s)); n != 1 {
		t.Fatalf("%d segments uncached after an ingest between cut and rename, want 1", n)
	}
	r, err := NewServer(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpointFile(s.cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if got := r.StatsNow().Records; got != before.Records {
		t.Fatalf("the checkpoint holds %d records, want the %d of its cut", got, before.Records)
	}
	if cost, err = s.checkpoint(); err != nil || cost.encoded != 1 {
		t.Fatalf("the next checkpoint encoded %d segments (err %v), want the one that ingested", cost.encoded, err)
	}
	sameAsEncoded(t, s)
}
