package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/dist/chaos"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// ckptDaemon ingests every goldenOrder batch of the daemon fixture but
// the last into a daemon that checkpoints to a directory of its own,
// and returns it with the batch it held back, which lands in one stripe.
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
	batches := goldenOrder(res.Records)
	for _, b := range batches[:len(batches)-1] {
		s.Ingest(b)
	}
	return s, batches[len(batches)-1]
}

// dirCheckpoint returns the c1 bytes a checkpoint directory holds:
// the header, then the entries its generation record lists, in order.
func dirCheckpoint(t testing.TB, dir string) []byte {
	t.Helper()
	rec, err := readGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte(CheckpointHeader)
	for _, e := range rec.Entries {
		b, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// sameAsEncoded fails the test unless the checkpoint directory holds
// exactly what EncodeCheckpoint serializes from the daemon's state
// afresh, and nothing but the record and the entries it names.
func sameAsEncoded(t *testing.T, s *Server) {
	t.Helper()
	want, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got := dirCheckpoint(t, s.cfg.CheckpointPath); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint directory (%d bytes) differs from a full EncodeCheckpoint (%d bytes)", len(got), len(want))
	}
	rec, _ := readGeneration(s.cfg.CheckpointPath)
	if names, n := dirNames(t, s.cfg.CheckpointPath), len(rec.Entries)+1; len(names) != n {
		t.Fatalf("checkpoint directory holds %q, want the record and its %d entries", names, n-1)
	}
}

// dirNames lists a directory.
func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// useDisk puts d under the durable write path for the rest of the test.
func useDisk(t *testing.T, d dist.FS) {
	t.Helper()
	prev := dist.Disk
	dist.Disk = d
	t.Cleanup(func() { dist.Disk = prev })
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
// daemon restored from the directory holds its state and no more, as
// near as 5 % of the checkpoint's size.
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
		for _, b := range goldenOrder(res.Records) {
			s.Ingest(b)
		}
		state := heapInUse()
		cost, err := s.checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		afterCkpt := heapInUse()
		t.Logf("%d segments in %d stripes, checkpoint %d bytes; heap %d → %d across the checkpoint",
			cost.encoded, cost.stripes, cost.bytes, state, afterCkpt)
		if grew := afterCkpt - state; grew >= cost.bytes/20 {
			t.Errorf("a checkpoint left %d bytes on the heap, want < %d (5%% of its %d bytes)", grew, cost.bytes/20, cost.bytes)
		}
		return state, cost, s.StatsNow()
	}()

	r, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpointDir(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	restored := heapInUse()
	t.Logf("heap %d with the restored daemon in place of the writer", restored)
	if grew := restored - state; grew >= cost.bytes/20 {
		t.Errorf("the restored daemon holds %d bytes more than the one that wrote the directory, want < %d", grew, cost.bytes/20)
	}
	if got := r.StatsNow(); got.Records != want.Records || got.Segments != want.Segments {
		t.Fatalf("restored %+v, want %+v", got, want)
	}
}

// snapshotDir reads every file of dir.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range dirNames(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

// TestCheckpointEncodesOnlyDirty: after one batch that lands in one
// stripe, a checkpoint encodes that stripe's segments alone and writes
// its entry and the generation record — the only two renames — prunes
// the entry it replaced, leaves every other entry file as it was,
// answers POST /v1/checkpoint with that cost, and the directory still
// holds the bytes a full encoding writes.
func TestCheckpointEncodesOnlyDirty(t *testing.T) {
	s, last := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dir := s.cfg.CheckpointPath
	before := snapshotDir(t, dir)
	k := s.shardKey(last[0].Start)
	for _, r := range last {
		if s.shardKey(r.Start) != k {
			t.Fatal("fixture: the held-back batch spans two stripes")
		}
	}
	s.Ingest(last)

	disk := &chaos.Disk{}
	useDisk(t, disk)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/checkpoint", nil))
	var got map[string]int64
	if err := json.Unmarshal(w.Body.Bytes(), &got); w.Code != http.StatusOK || err != nil {
		t.Fatalf("POST /v1/checkpoint: %d %s (%v)", w.Code, w.Body, err)
	}
	var renamed []string
	for _, step := range disk.Steps {
		if name, ok := strings.CutPrefix(step, "rename "); ok {
			renamed = append(renamed, name)
		}
	}
	entry := entryName(k, 2)
	if !slices.Equal(renamed, []string{entry, generationFile}) {
		t.Fatalf("the checkpoint renamed %q into place, want %q and the record", renamed, entry)
	}
	after := snapshotDir(t, dir)
	for name, was := range before {
		now, ok := after[name]
		switch {
		case name == generationFile:
		case name == entryName(k, 1):
			if ok {
				t.Errorf("the replaced entry %s was not pruned", name)
			}
		case !ok || now != was:
			t.Errorf("entry %s changed though its stripe ingested nothing", name)
		}
	}
	s.mu.Lock()
	segs := int64(len(s.shards[k].segs))
	s.mu.Unlock()
	want := map[string]int64{
		"segments":    s.StatsNow().Segments,
		"checkpoints": 2,
		"stripes":     1,
		"encoded":     segs,
		"bytes":       int64(len(after[entry])),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("POST /v1/checkpoint: %s = %d, want %d (%s)", k, got[k], v, w.Body)
		}
	}
	sameAsEncoded(t, s)
}

// TestRestoredCheckpointCopiesEverything: a daemon restored from a
// checkpoint directory takes every stripe's entry over with the
// stripe, so its first checkpoint writes no entry — the generation
// record alone — and the directory holds the same bytes. Restored at
// another stripe width, it writes every stripe afresh.
func TestRestoredCheckpointCopiesEverything(t *testing.T) {
	s, _ := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	orig := dirCheckpoint(t, s.cfg.CheckpointPath)
	r, err := NewServer(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpointDir(s.cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	disk := &chaos.Disk{}
	useDisk(t, disk)
	cost, err := r.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cost.stripes != 0 || cost.encoded != 0 {
		t.Errorf("restored daemon's first checkpoint wrote %d stripes (%d segments), want none", cost.stripes, cost.encoded)
	}
	if steps := disk.Steps; len(steps) != 4 || steps[2] != "rename "+generationFile {
		t.Errorf("restored daemon's first checkpoint took steps %q, want the record's four", steps)
	}
	sameAsEncoded(t, r)
	if !bytes.Equal(dirCheckpoint(t, s.cfg.CheckpointPath), orig) {
		t.Error("restored daemon's first checkpoint changed the checkpoint")
	}

	cfg := s.cfg
	cfg.ShardDuration = 7 * 24 * time.Hour
	wide, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.RestoreCheckpointDir(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	if cost, err = wide.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := wide.StatsNow().Shards; cost.stripes != n {
		t.Errorf("restored at another stripe width, the first checkpoint wrote %d of %d stripes, want all", cost.stripes, n)
	}
	sameAsEncoded(t, wide)
}

// TestRestoreKeepsNoViewOfItsBuffer: a directory restore reads its
// stripe entries into a few buffers in turn, each handed back once its
// entry's paths are interned, so nothing restored may keep a view of
// one. Restored through buffers that each hold the largest entry — every
// entry then passes through one of them, and several through each —
// which are scribbled over afterwards, the daemon must still serve the
// checkpointed daemon's /v1/report byte for byte and encode the same
// checkpoint.
func TestRestoreKeepsNoViewOfItsBuffer(t *testing.T) {
	s, _ := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	get := func(srv *Server) []byte {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/report", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("/v1/report: %d %s", rr.Code, rr.Body)
		}
		return rr.Body.Bytes()
	}
	want := get(s)
	wantCkpt, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	largest := int64(0)
	for _, name := range dirNames(t, s.cfg.CheckpointPath) {
		fi, err := os.Stat(filepath.Join(s.cfg.CheckpointPath, name))
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, fi.Size())
	}
	r, err := NewServer(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := newRestorer()
	backing := map[*byte]bool{}
	// Decodes in flight are bounded by the pool's window: the workers
	// and one more.
	for range cap(rs.bufs) {
		buf := make([]byte, 0, largest+1)
		rs.bufs <- buf
		backing[&buf[:1][0]] = true
	}
	if err := r.restoreDir(s.cfg.CheckpointPath, rs); err != nil {
		t.Fatal(err)
	}
	if len(rs.segs) < 10 || len(rs.bufs) != cap(rs.bufs) {
		t.Fatalf("restore decoded %d segments and handed back %d buffers", len(rs.segs), len(rs.bufs))
	}
	for range cap(rs.bufs) {
		buf := <-rs.bufs
		if !backing[&buf[:1][0]] {
			t.Fatal("a restore worker read into a buffer of its own")
		}
		scribble := buf[:cap(buf)]
		for i := range scribble {
			scribble[i] = 0xa5
		}
	}
	if got := get(r); !bytes.Equal(got, want) {
		t.Fatalf("after the read buffer was overwritten the restored report differs (%d vs %d bytes)", len(got), len(want))
	}
	if got, err := r.EncodeCheckpoint(); err != nil || !bytes.Equal(got, wantCkpt) {
		t.Fatalf("after the read buffer was overwritten the restored checkpoint differs (err %v)", err)
	}
}

// TestCheckpointFaultWrite is the checkpoint write's cut-point matrix,
// through the one seam under the durable write path (dist.Disk). From a
// checkpointed daemon, two batches land in two stripes; the next
// checkpoint is faulted at each of its steps in turn — each stripe
// entry's writes, fsync and rename, the entries' one directory fsync,
// the generation record's write, fsync, rename and directory fsync, and
// the prune's removals — by a short write, by ENOSPC, and by a stop
// right after the step. The two entries are written and fsynced on
// goroutines of their own, so their steps interleave differently from
// run to run; each fault is named by its step and its count among the
// equal steps of a clean checkpoint, which picks the same step every
// run. After each, a fresh daemon restored from the directory (from
// its crash image, for a stop) renders either the old report or the
// new one, and the daemon that took the fault checkpoints cleanly on
// the next try.
func TestCheckpointFaultWrite(t *testing.T) {
	base, last := ckptDaemon(t)
	if err := base.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	oldDir := base.cfg.CheckpointPath
	first := goldenOrder(daemonFixture(t).Records)[0][:1]
	restore := func(dir string) (*Server, error) {
		cfg := base.cfg
		cfg.CheckpointPath = dir
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, s.RestoreCheckpointDir(dir)
	}
	report := func(s *Server) string {
		r, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// advance restores a copy of the old checkpoint and ingests the two
	// batches: the daemon whose checkpoint the matrix faults.
	advance := func() *Server {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(oldDir)); err != nil {
			t.Fatal(err)
		}
		s, err := restore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Ingest(last)
		s.Ingest(first)
		return s
	}
	oldReport := report(base)
	clean := &chaos.Disk{}
	useDisk(t, clean)
	s := advance()
	newReport := report(s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	steps := clean.Steps
	kinds := map[string]int{}
	for _, step := range steps {
		kind, name, _ := strings.Cut(step, " ")
		switch {
		case name == generationFile:
			kind += " record"
		case strings.HasSuffix(name, entrySuffix):
			kind += " entry"
		}
		kinds[kind]++
	}
	want := map[string]int{"write entry": kinds["write entry"], "fsync entry": 2, "rename entry": 2, "fsync-dir": 2,
		"write record": 1, "fsync record": 1, "rename record": 1, "remove entry": 2}
	if !maps.Equal(kinds, want) || kinds["write entry"] < 2 {
		t.Fatalf("a clean checkpoint of two dirty stripes took steps %q", steps)
	}
	t.Logf("a clean checkpoint of two dirty stripes: %d steps", len(steps))

	seen := map[string]int{}
	for _, step := range steps {
		seen[step]++
		at := seen[step]
		for _, fault := range []chaos.DiskFault{chaos.ShortWrite, chaos.NoSpace, chaos.Stop} {
			useDisk(t, clean)
			s := advance()
			image := t.TempDir()
			named := step
			if strings.HasPrefix(step, "fsync-dir ") { // the directory is named afresh for every daemon
				named = "fsync-dir " + filepath.Base(s.cfg.CheckpointPath)
			}
			useDisk(t, &chaos.Disk{Step: named, At: at, Fault: fault, Dir: s.cfg.CheckpointPath, Image: image})
			err := s.Checkpoint()
			useDisk(t, clean)
			switch {
			case strings.HasPrefix(step, "remove "): // a prune's failure is logged, not returned
			case err == nil:
				t.Fatalf("%s #%d, fault %d: the checkpoint did not fail", step, at, fault)
			case fault == chaos.Stop && !errors.Is(err, chaos.ErrInjected):
				t.Fatalf("%s #%d: a stop reported %v", step, at, err)
			}
			if fault != chaos.Stop {
				image = s.cfg.CheckpointPath
			}
			r, err := restore(image)
			if err != nil {
				t.Fatalf("%s #%d, fault %d: restore: %v", step, at, fault, err)
			}
			if got := report(r); got != oldReport && got != newReport {
				t.Fatalf("%s #%d, fault %d: the restored daemon renders a third report", step, at, fault)
			}
			if fault == chaos.Stop {
				continue
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("%s #%d, fault %d: the next checkpoint: %v", step, at, fault, err)
			}
			sameAsEncoded(t, s)
			if r, err := restore(s.cfg.CheckpointPath); err != nil || report(r) != newReport {
				t.Fatalf("%s #%d, fault %d: after the next checkpoint the directory does not restore the new report (%v)",
					step, at, fault, err)
			}
		}
	}
}

// recordHook is a disk with a hook that runs once each generation
// record is renamed into place, before the checkpoint prunes.
type recordHook struct {
	dist.FS
	hook func()
}

func (d recordHook) Rename(from, to string) error {
	err := d.FS.Rename(from, to)
	if err == nil && filepath.Base(to) == generationFile {
		d.hook()
	}
	return err
}

// TestCheckpointFaultIngestAfterCut: a batch that lands after a checkpoint's
// cut — here, once its generation record is in place — is not in that
// checkpoint, and the stripe it extended stays to be written; the next
// checkpoint writes that stripe alone.
func TestCheckpointFaultIngestAfterCut(t *testing.T) {
	s, last := ckptDaemon(t)
	s.Ingest(last)
	tail := last[len(last)-1:] // the latest instant: extends the latest stripe's newest segment
	landed := false
	useDisk(t, recordHook{dist.Disk, func() {
		if landed {
			return
		}
		if !s.mu.TryRLock() {
			t.Error("the generation record is written while the cut holds mu")
			return
		}
		s.mu.RUnlock()
		s.Ingest(tail)
		landed = true
	}})
	before := s.StatsNow()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !landed || s.StatsNow().Records != before.Records+1 {
		t.Fatalf("fixture: ingest landed %v", landed)
	}
	r, err := NewServer(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpointDir(s.cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	if got := r.StatsNow().Records; got != before.Records {
		t.Fatalf("the checkpoint holds %d records, want the %d of its cut", got, before.Records)
	}
	cost, err := s.checkpoint()
	if err != nil || cost.stripes != 1 {
		t.Fatalf("the next checkpoint wrote %d stripes (err %v), want the one that ingested", cost.stripes, err)
	}
	sameAsEncoded(t, s)
}

// TestCheckpointFaultFlippedFrame: a bit flipped in a frame of a stripe
// entry fails a restore with an error naming the entry, and installs
// nothing. The daemon that wrote it never reads its entries back: once
// that stripe ingests, its next checkpoint writes the entry afresh and
// the directory restores again.
func TestCheckpointFaultFlippedFrame(t *testing.T) {
	s, last := ckptDaemon(t)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	k := s.shardKey(last[0].Start)
	path := filepath.Join(s.cfg.CheckpointPath, s.shards[k].entry)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x08
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := NewServer(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = r.RestoreCheckpointDir(s.cfg.CheckpointPath)
	if err == nil || !strings.Contains(err.Error(), path) || !errors.Is(err, dist.ErrFrame) {
		t.Fatalf("restore over a flipped bit: %v, want a frame error naming %s", err, path)
	}
	if st := r.StatsNow(); st != (Stats{}) {
		t.Fatalf("a failed restore left state behind: %+v", st)
	}
	s.Ingest(last)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sameAsEncoded(t, s)
	if r, err = NewServer(s.cfg); err == nil {
		err = r.RestoreCheckpointDir(s.cfg.CheckpointPath)
	}
	if err != nil {
		t.Fatalf("the rewritten checkpoint does not restore: %v", err)
	}
}

// parkSync is a disk on which each stripe entry's fsync reports itself
// on parked (when there is room) and then waits for release to close.
type parkSync struct {
	dist.FS
	parked  chan<- string
	release <-chan struct{}
}

func (d parkSync) CreateTemp(path string) (dist.TempFile, error) {
	f, err := d.FS.CreateTemp(path)
	if err != nil {
		return nil, err
	}
	return parkedFile{f, d, path}, nil
}

// parkedFile is a temporary of a parkSync disk.
type parkedFile struct {
	dist.TempFile
	d    parkSync
	path string
}

func (f parkedFile) Sync() error {
	if strings.HasSuffix(f.path, entrySuffix) {
		select {
		case f.d.parked <- filepath.Base(f.path):
		default:
		}
		<-f.d.release
	}
	return f.TempFile.Sync()
}

// TestCheckpointSyncsAfterTheCut: a checkpoint holds the ingest lock
// only while it encodes. With its entries' fsyncs parked, an ingest
// issued meanwhile completes before they are released; the checkpoint
// then holds its cut and not that batch, whose stripe the next
// checkpoint writes alone.
func TestCheckpointSyncsAfterTheCut(t *testing.T) {
	s, last := ckptDaemon(t)
	parked, release := make(chan string, ckptWorkers), make(chan struct{})
	useDisk(t, parkSync{&chaos.Disk{}, parked, release})
	before := s.StatsNow()
	done := make(chan error, 1)
	go func() { done <- s.Checkpoint() }()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("the checkpoint finished (%v) without an entry's fsync", err)
	}
	ingested := make(chan struct{})
	go func() {
		s.Ingest(last)
		close(ingested)
	}()
	select {
	case <-ingested:
	case <-time.After(10 * time.Second):
		t.Error("an ingest waited on the checkpoint's fsyncs")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-ingested
	if t.Failed() {
		return
	}
	r, err := NewServer(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpointDir(s.cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	if got := r.StatsNow().Records; got != before.Records {
		t.Fatalf("the checkpoint holds %d records, want the %d of its cut", got, before.Records)
	}
	cost, err := s.checkpoint()
	if err != nil || cost.stripes != 1 {
		t.Fatalf("the next checkpoint wrote %d stripes (err %v), want the one that ingested", cost.stripes, err)
	}
	sameAsEncoded(t, s)
}
