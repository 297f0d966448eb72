package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/trace"
)

// goldenOrder is the fixed out-of-order arrival sequence the byte-level
// tests post: the daemon fixture in two-day batches, shuffled inside
// windows of eight by a pinned seed — late arrivals that split stripes,
// in-order runs that extend them, the shape the benchmark's writers
// produce. Posted by one client it fixes the segmentation, and with it
// every checkpoint byte.
func goldenOrder(recs []trace.Record) [][]trace.Record {
	batches := cutBatches(recs, 2*24*time.Hour)
	rng := rand.New(rand.NewSource(1993))
	for lo := 0; lo < len(batches); lo += 8 {
		w := batches[lo:min(lo+8, len(batches))]
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	}
	return batches
}

// postFramed posts one framed batch straight through the handler.
func postFramed(t testing.TB, s *Server, frame []byte) {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/ingest/batch", bytes.NewReader(frame)))
	if w.Code != http.StatusOK {
		t.Fatalf("POST /v1/ingest/batch: status %d: %s", w.Code, w.Body)
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// The bytes a daemon at the commit before the journal-only segments
// wrote for goldenOrder over the daemon fixture (ShardDuration 5 days,
// pinned origin): computed there, by this test, and committed.
const (
	goldenCheckpointSHA = "eaeef8e7eb08fe680a60a99e55d87fc0c46bf05f94ebc6588bea2b98e6111849"
	goldenReportSHA     = "b2821ef3f8f63949cca3ad569ad77044b320fc522fb7e96b7ad3a3c35671afa1"
)

// TestMigdCheckpointGolden pins the daemon's two byte-level outputs —
// the checkpoint and the rendered report — to what the daemon wrote
// before its segments became journal-only and its checkpoint a
// directory: however the state is held in memory or split on disk, the
// same arrivals serialize to the same bytes. The checkpoint is pinned
// twice: as EncodeCheckpoint serializes it, and as the stripe entries
// the directory's generation record lists, read in order after the c1
// header.
func TestMigdCheckpointGolden(t *testing.T) {
	res := daemonFixture(t)
	ckpt := filepath.Join(t.TempDir(), "migd.ckpt")
	s, err := NewServer(Config{
		Opts:           core.Options{Start: res.Config.Start, Days: res.Config.Days},
		ShardDuration:  5 * 24 * time.Hour,
		CheckpointPath: ckpt,
		Now:            fixedClock(res),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenOrder(res.Records) {
		postFramed(t, s, frameBatch(t, b))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	encoded, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"checkpoint directory": dirCheckpoint(t, ckpt), "EncodeCheckpoint": encoded} {
		if got := sha(data); got != goldenCheckpointSHA {
			t.Errorf("%s sha256 = %s, want %s (%d bytes, %d segments)", name, got, goldenCheckpointSHA, len(data), s.StatsNow().Segments)
		}
	}
	report, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha([]byte(report)); got != goldenReportSHA {
		t.Errorf("/v1/report sha256 = %s, want %s", got, goldenReportSHA)
	}
}

// TestMigdReportAllocs pins what a report allocates per journal entry.
// The fold reserves its master's state from the segments it folds and
// the report sizes what it keeps, so nearly every byte either call
// allocates is one the report holds: a per-reference or per-file slice
// left to grow by append regrows several times over and shows up here
// as bytes past the bound, before any benchmark sees it. Measured on
// the goldenOrder arrivals at 61.8 B an entry for Accumulate, 54.4 B
// for the core Report and 178.7 B for the whole Server.Report — 1.9 B
// an entry of it the capture's copy of each stripe's latest segment
// (58.2–59.9 B for Accumulate while the fold held the lock instead; 71.8,
// 54.4 and 188.6 B while the master hashed every path into a table of
// its own rather than borrowing the daemon's; 208 B and 114 B for the
// first two before the fold was sized and the radix sort kept one
// buffer); at this size the radix sorts' digit counts are most of the
// core Report's share.
func TestMigdReportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations skew TotalAlloc")
	}
	res := daemonFixture(t)
	s, err := NewServer(Config{
		Opts:          core.Options{Start: res.Config.Start, Days: res.Config.Days},
		ShardDuration: 5 * 24 * time.Hour,
		Now:           fixedClock(res),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenOrder(res.Records) {
		s.Ingest(b)
	}
	st := s.StatsNow()
	entries := float64(st.Records - st.Errors)
	perEntry := func(fn func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / entries
	}
	var m *core.Analysis
	fold := perEntry(func() { m, err = s.Accumulate() })
	if err != nil {
		t.Fatal(err)
	}
	report := perEntry(func() { m.Report() })
	whole := perEntry(func() { _, err = s.Report() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f journal entries: Accumulate allocates %.1f B an entry, Report %.1f B, Server.Report %.1f B",
		entries, fold, report, whole)
	if fold > 62 {
		t.Errorf("Accumulate allocates %.1f B a journal entry, want <= 62", fold)
	}
	if report > 65 {
		t.Errorf("Report allocates %.1f B a journal entry, want <= 65", report)
	}
	if whole > 180 {
		t.Errorf("Server.Report allocates %.1f B a journal entry, want <= 180", whole)
	}
}

// TestMigdCheckpointGoldenRestore: the golden daemon's checkpoint,
// restored on ckptWorkers goroutines into one shared path table — from
// its directory and from its c1 bytes — answers /v1/report (the golden
// sha), /v1/stats and /v1/file for every path as the daemon that wrote
// it does, and re-encodes to the golden checkpoint. A damaged entry in
// the middle of the record fails the restore naming that entry, with
// nothing installed, whichever worker meets it first: with a later
// entry damaged too, the error still names the middle one.
func TestMigdCheckpointGoldenRestore(t *testing.T) {
	res := daemonFixture(t)
	cfg := Config{
		Opts:           core.Options{Start: res.Config.Start, Days: res.Config.Days},
		ShardDuration:  5 * 24 * time.Hour,
		CheckpointPath: filepath.Join(t.TempDir(), "migd.ckpt"),
		Now:            fixedClock(res),
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenOrder(res.Records) {
		postFramed(t, s, frameBatch(t, b))
	}
	seen := map[string]bool{}
	var paths []string
	for i := range res.Records {
		if p := res.Records[i].MSSPath; !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	now := fixedClock(res)()
	want := answers(t, s, paths, now) // before the checkpoint its stats count
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := s.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	for name, restore := range map[string]func(*Server) error{
		"directory": func(r *Server) error { return r.RestoreCheckpointDir(cfg.CheckpointPath) },
		"c1":        func(r *Server) error { return r.RestoreCheckpoint(ckpt) },
	} {
		r, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restore(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		report, err := r.Report()
		if err != nil {
			t.Fatal(err)
		}
		if got := sha([]byte(report)); got != goldenReportSHA {
			t.Errorf("%s: restored /v1/report sha256 = %s, want %s", name, got, goldenReportSHA)
		}
		if got := answers(t, r, paths, now); got != want {
			t.Errorf("%s: the restored daemon answers differently from the one that wrote the checkpoint", name)
		}
		again, err := r.EncodeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(again); got != goldenCheckpointSHA {
			t.Errorf("%s: the restored daemon re-encodes to sha256 %s, want %s", name, got, goldenCheckpointSHA)
		}
	}

	rec, err := readGeneration(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) < 3*ckptWorkers {
		t.Fatalf("fixture: %d entries, too few to keep %d workers busy", len(rec.Entries), ckptWorkers)
	}
	damage := func(e entry) string {
		path := filepath.Join(cfg.CheckpointPath, e.File)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x08
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	middle := damage(rec.Entries[len(rec.Entries)/2])
	damage(rec.Entries[len(rec.Entries)-2])
	for range 20 {
		r, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = r.RestoreCheckpointDir(cfg.CheckpointPath)
		if err == nil || !strings.Contains(err.Error(), middle) || !errors.Is(err, dist.ErrFrame) {
			t.Fatalf("restore over two damaged entries: %v, want a frame error naming %s", err, middle)
		}
		if st := r.StatsNow(); st != (Stats{}) {
			t.Fatalf("a failed restore left state behind: %+v", st)
		}
	}
}
