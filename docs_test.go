package filemig_test

// Keeps the worked examples in docs/ honest: each document's example is
// executed and its shown output compared byte for byte, so the docs
// cannot drift from the code.

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"filemig"
	"filemig/internal/device"
	"filemig/internal/dist"
	"filemig/internal/experiment"
	"filemig/internal/migration"
	"filemig/internal/serve"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// docFence extracts the first fenced code block following the given
// <!-- test:... --> marker.
func docFence(t *testing.T, doc, marker string) string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, marker)
	if !ok {
		t.Fatalf("the document lost its %s marker", marker)
	}
	_, rest, ok = strings.Cut(rest, "```")
	if !ok {
		t.Fatalf("no code fence after %s", marker)
	}
	// Drop the info string ("json") on the opening fence line.
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		rest = rest[i+1:]
	}
	body, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatalf("unterminated code fence after %s", marker)
	}
	return body
}

func TestDocsWorkedExample(t *testing.T) {
	raw, err := os.ReadFile("docs/experiments.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	spec, err := experiment.Parse(strings.NewReader(docFence(t, doc, "<!-- test:spec -->")))
	if err != nil {
		t.Fatalf("worked example spec does not parse: %v", err)
	}
	m, err := filemig.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimRight(filemig.RenderExperiment(m), "\n")
	want := strings.TrimRight(docFence(t, doc, "<!-- test:output -->"), "\n")
	if got != want {
		t.Errorf("docs/experiments.md worked example is stale.\n--- documented ---\n%s\n--- actual ---\n%s",
			want, got)
	}
}

// TestDocsB2Example re-encodes docs/trace-format.md's three worked
// records with the documented epoch and compares the documented hex
// dump byte for byte — the b2 wire layout in the docs is the layout
// the codec emits.
func TestDocsB2Example(t *testing.T) {
	raw, err := os.ReadFile("docs/trace-format.md")
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(654739200, 0).UTC()
	recs := []trace.Record{
		{Start: epoch.Add(10 * time.Second), Op: trace.Read, Device: device.ClassDisk,
			Startup: 4 * time.Second, Transfer: 1500 * time.Millisecond,
			Size: 3145728, UserID: 101, MSSPath: "/mss/u1/a", LocalPath: "/tmp/a"},
		{Start: epoch.Add(15 * time.Second), Op: trace.Write, Device: device.ClassSiloTape,
			Startup: 85 * time.Second, Transfer: 40000 * time.Millisecond,
			Size: units.Bytes(83886080), UserID: 101, MSSPath: "/mss/u1/b", LocalPath: "/tmp/b"},
		{Start: epoch.Add(400 * time.Second), Op: trace.Read, Device: device.ClassManualTape,
			Err: trace.ErrNoFile, UserID: 202, MSSPath: "/mss/u2/gone", LocalPath: "/tmp/gone"},
	}
	var enc bytes.Buffer
	w := trace.NewB2WriterEpoch(&enc, epoch)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimRight(hex.Dump(enc.Bytes()), "\n")
	want := strings.TrimRight(docFence(t, string(raw), "<!-- test:b2-dump -->"), "\n")
	if got != want {
		t.Errorf("docs/trace-format.md b2 worked example is stale.\n--- documented ---\n%s\n--- actual ---\n%s",
			want, got)
	}
	// The documented total ("185-byte file") rides along in prose; keep
	// it honest too.
	if enc.Len() != 185 {
		t.Errorf("worked example encodes to %d bytes, docs say 185", enc.Len())
	}
}

// TestDocsSnapshotExample executes docs/snapshots.md's worked
// distributed merge through the facade — the same workload, split,
// snapshotted twice, merged — and compares the documented Table 4
// byte for byte.
func TestDocsSnapshotExample(t *testing.T) {
	raw, err := os.ReadFile("docs/snapshots.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	p, err := filemig.Run(filemig.Config{Scale: 0.001, Seed: 3, Days: 60})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(p.Records) / 2
	var snaps [2]bytes.Buffer
	for i, recs := range [][]trace.Record{p.Records[:cut], p.Records[cut:]} {
		var enc bytes.Buffer
		if err := trace.WriteAllFormat(&enc, recs, trace.FormatBinary); err != nil {
			t.Fatal(err)
		}
		if err := filemig.SaveSnapshot(&snaps[i], &enc); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := filemig.MergeSnapshots(&snaps[0], &snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	e, ok := filemig.FindExperiment("table4")
	if !ok {
		t.Fatal("table4 experiment missing")
	}
	got := strings.TrimRight(e.Render(merged), "\n")
	want := strings.TrimRight(docFence(t, doc, "<!-- test:snapshot-output -->"), "\n")
	if got != want {
		t.Errorf("docs/snapshots.md worked example is stale.\n--- documented ---\n%s\n--- actual ---\n%s",
			want, got)
	}
}

// TestDocsDistributedExample runs docs/distributed.md's quickgrid spec
// through the real coordinator/worker path — two in-process workers
// over loopback — and compares the documented render byte for byte.
// The same spec's manifest is also the chaos golden in internal/dist.
func TestDocsDistributedExample(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full distributed grid")
	}
	raw, err := os.ReadFile("docs/distributed.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	spec, err := experiment.Parse(strings.NewReader(docFence(t, doc, "<!-- test:dist-spec -->")))
	if err != nil {
		t.Fatalf("worked example spec does not parse: %v", err)
	}
	plan, err := experiment.BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dist.NewGridCoordinator(plan, dist.Options{
		Lease: 30 * time.Second, Now: time.Now, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- g.Serve(ctx, ln) }()
	workers := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			workers <- dist.RunWorker(ctx, base, dist.WorkerOptions{Seed: seed})
		}(int64(i + 1))
	}
	if err := <-served; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-workers; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	m, err := g.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimRight(experiment.RenderManifest(m), "\n")
	want := strings.TrimRight(docFence(t, doc, "<!-- test:dist-output -->"), "\n")
	if got != want {
		t.Errorf("docs/distributed.md worked example is stale.\n--- documented ---\n%s\n--- actual ---\n%s",
			want, got)
	}
}

// TestDocsPoliciesExample replays docs/policies.md's ten-access worked
// trace under the modern policies plus STP^1.4 and LRU at the
// documented 50 MB capacity and compares the documented comparison
// table byte for byte.
func TestDocsPoliciesExample(t *testing.T) {
	raw, err := os.ReadFile("docs/policies.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	recs, err := trace.ReadAll(strings.NewReader(docFence(t, doc, "<!-- test:policies-trace -->")))
	if err != nil {
		t.Fatalf("worked example trace does not parse: %v", err)
	}
	accs := migration.AccessesFromRecords(recs)
	policies := []migration.Policy{migration.NewARC(), migration.NewLRUK(2), migration.NewGDSF(),
		migration.NewCostAware(migration.DefaultTapeRateMBps), migration.NewAdaptiveSTP(),
		migration.STP{K: 1.4}, migration.LRU{}}
	results := make([]migration.CacheResult, len(policies))
	err = migration.ReplayCells(context.Background(), 1, len(policies),
		func(i int) (migration.ReplayCell, error) {
			return migration.ReplayCell{Accs: accs, Policy: policies[i], Capacity: units.Bytes(50_000_000)}, nil
		},
		func(i int, r migration.CacheResult) { results[i] = r })
	if err != nil {
		t.Fatal(err)
	}
	// Best read miss ratio first, ties in list order, as migsim ranks.
	sort.SliceStable(results, func(i, j int) bool { return results[i].MissRatio() < results[j].MissRatio() })
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %6s %8s %11s\n", "policy", "reads", "hits", "misses", "evictions")
	for _, r := range results {
		fmt.Fprintf(&b, "%-10s %6d %6d %8d %11d\n", r.Policy, r.Reads, r.ReadHits, r.ReadMisses, r.Evictions)
	}
	got := strings.TrimRight(b.String(), "\n")
	want := strings.TrimRight(docFence(t, doc, "<!-- test:policies-table -->"), "\n")
	if got != want {
		t.Errorf("docs/policies.md worked example is stale.\n--- documented ---\n%s\n--- actual ---\n%s",
			want, got)
	}
}

// TestDocsTournament runs docs/tournament.md's full 168-cell grid —
// every scenario × every policy (classic six + modern five) × three
// capacities — and compares the documented tables byte for byte. The
// committed testdata/tournament.json must also match the spec fence,
// so the documented reproduce command runs the documented spec.
func TestDocsTournament(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 168-cell experiment grid")
	}
	raw, err := os.ReadFile("docs/tournament.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	fence := docFence(t, doc, "<!-- test:tournament-spec -->")
	committed, err := os.ReadFile("testdata/tournament.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimRight(fence, "\n") != strings.TrimRight(string(committed), "\n") {
		t.Errorf("testdata/tournament.json differs from the docs/tournament.md spec fence")
	}
	spec, err := experiment.Parse(strings.NewReader(fence))
	if err != nil {
		t.Fatalf("tournament spec does not parse: %v", err)
	}
	m, err := filemig.RunExperiment(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimRight(filemig.RenderExperiment(m), "\n")
	want := strings.TrimRight(docFence(t, doc, "<!-- test:tournament-tables -->"), "\n")
	if got != want {
		t.Errorf("docs/tournament.md tables are stale.\n--- documented ---\n%s\n--- actual ---\n%s",
			want, got)
	}
}

// TestDocsMigdExample runs docs/migd.md's worked example: the three-line
// ASCII trace is posted to a live daemon and the documented /v1/file
// answer is compared byte for byte.
func TestDocsMigdExample(t *testing.T) {
	raw, err := os.ReadFile("docs/migd.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	s, err := serve.NewServer(serve.Config{
		Now: func() time.Time { return time.Date(1990, 10, 10, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	body := docFence(t, doc, "<!-- test:migd-trace -->")
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("documented trace did not ingest: status %d: %s", w.Code, w.Body)
	}

	req = httptest.NewRequest(http.MethodGet,
		"/v1/file/mss/climate/run07/state.dat?now=1990-10-10T00:00:00Z", nil)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("documented file query failed: status %d: %s", w.Code, w.Body)
	}
	got := strings.TrimRight(w.Body.String(), "\n")
	want := strings.TrimRight(docFence(t, doc, "<!-- test:migd-file -->"), "\n")
	if got != want {
		t.Errorf("docs/migd.md worked example is stale.\n--- documented ---\n%s\n--- actual ---\n%s", want, got)
	}
}
