package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/device"
	"filemig/internal/dist"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// The migd acceptance suite: the daemon is correct exactly when its
// live answers are byte-identical to the offline pipeline over the same
// records — however the records were cut into batches, whatever order
// concurrent clients delivered them in, and across a kill/restore in
// the middle.

// daemonFixture generates the golden workload trace the daemon tests
// ingest, canonicalized through the b1 codec: the generator emits
// nanosecond instants, the wire formats carry seconds, and the daemon
// only ever sees what crossed the wire — so the offline baseline must
// analyze the same round-tripped records.
func daemonFixture(t testing.TB) *workload.Result {
	t.Helper()
	cfg := workload.DefaultConfig(0.004, 77)
	cfg.Days = 120
	return canonicalWorkload(t, cfg)
}

// canonicalWorkload generates cfg's trace and round-trips it through
// the b1 codec, as daemonFixture does.
func canonicalWorkload(t testing.TB, cfg workload.Config) *workload.Result {
	t.Helper()
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("workload.Generate: %v", err)
	}
	if len(res.Records) < 1000 {
		t.Fatalf("fixture too small: %d records", len(res.Records))
	}
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, res.Records, trace.FormatBinary); err != nil {
		t.Fatalf("canonicalizing fixture: %v", err)
	}
	res.Records, err = DecodeIngest(buf.Bytes())
	if err != nil {
		t.Fatalf("canonicalizing fixture: %v", err)
	}
	return res
}

// fixedClock returns a Config.Now pinned after the fixture's trace.
func fixedClock(res *workload.Result) func() time.Time {
	end := res.Config.Start.AddDate(0, 0, res.Config.Days)
	return func() time.Time { return end }
}

// cutBatches splits the records into contiguous runs of roughly the
// given time width — the ingest batches clients will post.
func cutBatches(recs []trace.Record, width time.Duration) [][]trace.Record {
	var batches [][]trace.Record
	for i := 0; i < len(recs); {
		cut := recs[i].Start.Add(width)
		j := i + 1
		for j < len(recs) && recs[j].Start.Before(cut) {
			j++
		}
		batches = append(batches, recs[i:j])
		i = j
	}
	return batches
}

// frameBatch encodes one batch as a b1 trace stream inside a dist wire
// frame — the /v1/ingest/batch body format.
func frameBatch(t testing.TB, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, recs, trace.FormatBinary); err != nil {
		t.Fatalf("encoding batch: %v", err)
	}
	return dist.EncodeFrame(buf.Bytes())
}

// postBatch posts one framed batch to a running daemon and fails the
// test on any non-200 outcome.
func postBatch(t testing.TB, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/ingest/batch: %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/ingest/batch: status %d: %s", resp.StatusCode, out)
	}
}

// getBody GETs a daemon URL and returns the body, failing on non-200.
func getBody(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// sliceBaseline renders the offline slice-path report for the records.
func sliceBaseline(recs []trace.Record, opts core.Options) string {
	m := core.New(opts)
	m.AddAll(recs)
	return core.RenderReport(m.Report())
}

// TestMigdIngestEquivalence is the daemon's acceptance test: the golden
// trace is cut into batches, the batches are shuffled and posted by
// concurrent clients in interleaved order, and /v1/report must come
// back byte-identical to the offline slice path over the same records —
// for one, two, and eight clients, with and without a pinned calendar
// origin.
func TestMigdIngestEquivalence(t *testing.T) {
	res := daemonFixture(t)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"pinned-origin", core.Options{Start: res.Config.Start, Days: res.Config.Days}},
		{"derived-origin", core.Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sliceBaseline(res.Records, tc.opts)
			for _, clients := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
					s, err := NewServer(Config{
						Opts:          tc.opts,
						ShardDuration: 5 * 24 * time.Hour,
						Now:           fixedClock(res),
					})
					if err != nil {
						t.Fatal(err)
					}
					hs := httptest.NewServer(s)
					defer hs.Close()

					batches := cutBatches(res.Records, 3*24*time.Hour)
					rng := rand.New(rand.NewSource(int64(clients)))
					rng.Shuffle(len(batches), func(i, j int) {
						batches[i], batches[j] = batches[j], batches[i]
					})
					var wg sync.WaitGroup
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							for i := c; i < len(batches); i += clients {
								postBatch(t, hs.URL, frameBatch(t, batches[i]))
							}
						}(c)
					}
					wg.Wait()

					got := string(getBody(t, hs.URL+"/v1/report"))
					if got != want {
						t.Fatalf("live report diverges from the slice path (%d vs %d bytes)", len(got), len(want))
					}
				})
			}
		})
	}
}

// TestMigdSingleIngest covers the unframed /v1/ingest body, the live
// per-file verdicts, and the stats counters on a tiny hand-posted
// trace.
func TestMigdSingleIngest(t *testing.T) {
	res := daemonFixture(t)
	s, err := NewServer(Config{Now: fixedClock(res)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	recs := res.Records[:25]
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, recs, trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/ingest", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/ingest: status %d", resp.StatusCode)
	}

	st := s.StatsNow()
	if st.Records != int64(len(recs)) {
		t.Fatalf("stats records = %d, want %d", st.Records, len(recs))
	}
	var path string
	for i := range recs {
		if recs[i].OK() {
			path = recs[i].MSSPath
			break
		}
	}
	fs, ok := s.FileStatusAt(path, fixedClock(res)())
	if !ok {
		t.Fatalf("file %q missing from the live table", path)
	}
	if fs.Reads+fs.Writes == 0 || fs.Verdict == "" {
		t.Fatalf("degenerate file status: %+v", fs)
	}
	// A query instant past 2262 has no UnixNano; the rank still takes
	// the time.Time age, saturated at the longest Duration.
	far := time.Date(3000, time.January, 1, 0, 0, 0, 0, time.UTC)
	if fs, _ := s.FileStatusAt(path, far); fs.Rank != math.Pow(far.Sub(fs.Last).Hours()/24, s.stpK)*float64(fs.Size) {
		t.Errorf("rank at %v = %g, want the saturated age's", far, fs.Rank)
	}
	body := getBody(t, hs.URL+"/v1/file"+path)
	if !bytes.Contains(body, []byte(`"verdict"`)) {
		t.Fatalf("/v1/file answer lacks a verdict: %s", body)
	}
	if got := getBody(t, hs.URL+"/v1/stats"); !bytes.Contains(got, []byte(`"records"`)) {
		t.Fatalf("/v1/stats answer lacks counters: %s", got)
	}
}

// TestMigdIngestRejectsCorruptBatch proves a damaged batch is rejected
// whole: a truncated or bit-flipped frame, or an intact frame around a
// torn stream — which decodes ninety-odd good records before it fails —
// changes nothing, and the error names the problem. Nothing includes
// the daemon-wide path table: a path seen only in a rejected batch is
// never interned.
func TestMigdIngestRejectsCorruptBatch(t *testing.T) {
	res := daemonFixture(t)
	s, err := NewServer(Config{Now: fixedClock(res)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	// A good batch first, so "unchanged" is not just "empty".
	postBatch(t, hs.URL, frameBatch(t, res.Records[:100]))
	before, pathsBefore := s.StatsNow(), s.paths.Len()
	if before.Files == 0 || before.Segments == 0 {
		t.Fatalf("good batch left no state: %+v", before)
	}

	// The damaged batches carry records the daemon has not seen, and
	// probe is a path only they hold.
	later := res.Records[100:200]
	var probe string
	known := map[string]bool{}
	for _, r := range res.Records[:100] {
		known[r.MSSPath] = true
	}
	for _, r := range later {
		if r.OK() && !known[r.MSSPath] {
			probe = r.MSSPath
			break
		}
	}
	if probe == "" {
		t.Fatal("fixture: the second hundred records introduce no new file")
	}
	frame := frameBatch(t, later)
	var stream bytes.Buffer
	if err := trace.WriteAllFormat(&stream, later, trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	bitflip := append([]byte(nil), frame...)
	bitflip[60] ^= 0x01
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"truncated", "frame", frame[:len(frame)-7]},
		{"bitflip", "frame", bitflip},
		{"torn-stream", "unexpected EOF", dist.EncodeFrame(stream.Bytes()[:stream.Len()-3])},
	} {
		resp, err := http.Post(hs.URL+"/v1/ingest/batch", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s batch: status %d, want 400", tc.name, resp.StatusCode)
		}
		if !bytes.Contains(msg, []byte(tc.want)) {
			t.Fatalf("%s batch: error does not mention %q: %s", tc.name, tc.want, msg)
		}
		if st := s.StatsNow(); st != before {
			t.Fatalf("%s batch changed the daemon: %+v, was %+v", tc.name, st, before)
		}
		if n := s.paths.Len(); n != pathsBefore {
			t.Fatalf("%s batch interned %d paths", tc.name, n-pathsBefore)
		}
		resp, err = http.Get(hs.URL + "/v1/file" + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s batch: /v1/file%s is %d, want 404", tc.name, probe, resp.StatusCode)
		}
	}
}

// TestMigdCheckpointResume kills a daemon mid-ingest and proves the
// checkpoint resumes it exactly: a new daemon restored from the latest
// checkpoint plus the replayed tail renders the same report — and the
// same per-file answers — as one that never died. The restored state
// must also re-checkpoint byte-identically before new ingest touches
// it.
func TestMigdCheckpointResume(t *testing.T) {
	res := daemonFixture(t)
	opts := core.Options{Start: res.Config.Start, Days: res.Config.Days}
	want := sliceBaseline(res.Records, opts)
	now := fixedClock(res)
	ckpt := filepath.Join(t.TempDir(), "migd.ckpt")

	batches := cutBatches(res.Records, 4*24*time.Hour)
	if len(batches) < 6 {
		t.Fatalf("fixture cut into only %d batches", len(batches))
	}
	cut := len(batches) / 2

	cfg := Config{Opts: opts, ShardDuration: 6 * 24 * time.Hour, CheckpointPath: ckpt, Now: now}
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1)
	for _, b := range batches[:cut] {
		postBatch(t, hs1.URL, frameBatch(t, b))
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	probe := res.Records[0].MSSPath
	beforeKill, okBefore := s1.FileStatusAt(probe, now())
	hs1.Close() // the daemon dies here; batches[cut:] were never delivered

	data := dirCheckpoint(t, ckpt)
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.RestoreCheckpointDir(ckpt); err != nil {
		t.Fatalf("restore: %v", err)
	}

	// Resumed state is the checkpointed state, exactly: same counters,
	// same per-file answer, and a byte-identical re-checkpoint.
	if got, wantN := s2.StatsNow().Records, s1.StatsNow().Records; got != wantN {
		t.Fatalf("restored %d records, checkpoint covered %d", got, wantN)
	}
	if afterKill, ok := s2.FileStatusAt(probe, now()); ok != okBefore || afterKill != beforeKill {
		t.Fatalf("per-file answer changed across restore:\n before %+v\n after  %+v", beforeKill, afterKill)
	}
	resaved, err := s2.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved, data) {
		t.Fatal("restored state does not re-checkpoint byte-identically")
	}

	// The client replays the undelivered tail; the final report must be
	// the uninterrupted run's.
	hs2 := httptest.NewServer(s2)
	defer hs2.Close()
	for _, b := range batches[cut:] {
		postBatch(t, hs2.URL, frameBatch(t, b))
	}
	if got := string(getBody(t, hs2.URL+"/v1/report")); got != want {
		t.Fatalf("post-resume report diverges from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestMigdCheckpointCadence proves Config.CheckpointEvery writes
// checkpoints on its own as records flow.
func TestMigdCheckpointCadence(t *testing.T) {
	res := daemonFixture(t)
	ckpt := filepath.Join(t.TempDir(), "migd.ckpt")
	s, err := NewServer(Config{
		CheckpointPath:  ckpt,
		CheckpointEvery: 200,
		Now:             fixedClock(res),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cutBatches(res.Records[:600], 24*time.Hour) {
		s.Ingest(b)
	}
	if n := s.StatsNow().Checkpoints; n == 0 {
		t.Fatal("no cadence checkpoint was written")
	}
	if _, err := readGeneration(ckpt); err != nil {
		t.Fatalf("no checkpoint in place: %v", err)
	}
}

// TestMigdConcurrentQueries is the race stress test: ingest clients,
// report readers, and per-file/stat readers all hammer one daemon at
// once. Run under -race this proves the locking; the final report must
// still be exact.
func TestMigdConcurrentQueries(t *testing.T) {
	res := daemonFixture(t)
	opts := core.Options{Start: res.Config.Start, Days: res.Config.Days}
	want := sliceBaseline(res.Records, opts)
	cfg := Config{Opts: opts, ShardDuration: 3 * 24 * time.Hour, Now: fixedClock(res),
		CheckpointPath: filepath.Join(t.TempDir(), "migd.ckpt")}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	batches := cutBatches(res.Records, 2*24*time.Hour)
	done := make(chan struct{})
	var readers sync.WaitGroup
	// Two report readers, a checkpoint writer and an in-memory
	// checkpoint encoder: each captures a version and folds or encodes
	// it while the clients below go on ingesting.
	for _, path := range []string{"GET /v1/report", "GET /v1/report", "POST /v1/checkpoint", "EncodeCheckpoint"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if path == "EncodeCheckpoint" {
					if _, err := s.EncodeCheckpoint(); err != nil {
						t.Errorf("EncodeCheckpoint: %v", err)
					}
					continue
				}
				method, url, _ := strings.Cut(path, " ")
				req, _ := http.NewRequest(method, hs.URL+url, nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			path := res.Records[r].MSSPath
			for {
				select {
				case <-done:
					return
				default:
				}
				s.FileStatusAt(path, fixedClock(res)())
				s.StatsNow()
			}
		}(r)
	}

	clients := 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(batches); i += clients {
				postBatch(t, hs.URL, frameBatch(t, batches[i]))
			}
		}(c)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	if got := string(getBody(t, hs.URL+"/v1/report")); got != want {
		t.Fatalf("report after concurrent load diverges (%d vs %d bytes)", len(got), len(want))
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err := NewServer(cfg)
	if err == nil {
		err = r.RestoreCheckpointDir(cfg.CheckpointPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Report(); err != nil || got != want {
		t.Fatalf("the checkpoint written after concurrent load restores another report (err %v)", err)
	}
}

// TestMigdIngestDuringFold: a report folds a version captured under the
// state lock, not the live state. Half the golden trace's batches are
// ingested, every other one, and a version captured; the other half —
// batches that open segments between captured ones, extend captured
// latest segments and intern new paths, growing the table the version
// reads through — is ingested once the capture returns and while the
// version folds. The version must fold to the report of the records
// before the capture, byte for byte, and a fresh report to the slice
// path over every record.
func TestMigdIngestDuringFold(t *testing.T) {
	res := daemonFixture(t)
	opts := core.Options{Start: res.Config.Start, Days: res.Config.Days}
	s, err := NewServer(Config{Opts: opts, ShardDuration: 3 * 24 * time.Hour, Now: fixedClock(res)})
	if err != nil {
		t.Fatal(err)
	}
	batches := cutBatches(res.Records, 12*time.Hour)
	var before []trace.Record
	for i := 0; i < len(batches); i += 2 {
		s.Ingest(batches[i])
		before = append(before, batches[i]...)
	}
	files := s.StatsNow().Files
	v := s.capture(nil)

	// The first later batch lands before the fold starts, the rest beside it.
	s.Ingest(batches[1])
	folded := make(chan string, 1)
	go func() {
		m, err := s.fold(v)
		if err != nil {
			t.Error(err)
			folded <- ""
			return
		}
		folded <- core.RenderReport(m.Report())
	}()
	for i := 3; i < len(batches); i += 2 {
		s.Ingest(batches[i])
	}
	if got := s.StatsNow().Files; got <= files {
		t.Fatalf("fixture: the later batches interned no path (%d files before, %d after)", files, got)
	}
	if got, want := <-folded, sliceBaseline(before, opts); got != want {
		t.Fatalf("the captured version folds to another report than the records before it (%d vs %d bytes)", len(got), len(want))
	}
	if got, err := s.Report(); err != nil || got != sliceBaseline(res.Records, opts) {
		t.Fatalf("a fresh report after the later batches diverges from the slice path (err %v)", err)
	}
}

// referenceDecode is DecodeIngest as it was before the byte-window
// decoder: the sniffing stream reader over a bytes.Reader, a private
// interner, the same order check — the differential reference.
func referenceDecode(body []byte) ([]trace.Record, error) {
	st, err := trace.OpenStream(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	for {
		r, err := st.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		if n := len(recs); n > 0 && r.Start.Before(recs[n-1].Start) {
			return nil, fmt.Errorf("record %d out of order", n+1)
		}
		recs = append(recs, r)
	}
}

// FuzzMigdIngestFrame fuzzes the batch ingest body decoder end to end
// through the HTTP handler: arbitrary bodies must produce a clean 200
// or 400, never a panic, and a non-200 must leave the daemon empty. It
// is also differential: the body, and the payload inside it when it
// frames one, must decode through the byte-window decoder to exactly
// the records the stream reader yields, or fail in both — whatever
// format (v1, b1, b2) the bytes announce.
func FuzzMigdIngestFrame(f *testing.F) {
	base := time.Date(1992, 1, 6, 9, 0, 0, 0, time.UTC)
	mkFormat := func(n int, format trace.Format) []byte {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{
				Start:     base.Add(time.Duration(i) * time.Minute),
				Op:        trace.Read,
				Device:    device.ClassDisk,
				Size:      4096,
				MSSPath:   fmt.Sprintf("/mss/u/f%d", i%3),
				LocalPath: fmt.Sprintf("/tmp/f%d", i%3),
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteAllFormat(&buf, recs, format); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	mk := func(n int) []byte { return mkFormat(n, trace.FormatBinary) }
	good := dist.EncodeFrame(mk(5))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte("#dist-frame f1\n"))
	f.Add(mk(2)) // unframed stream on the framed endpoint
	f.Add([]byte{})
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	f.Add(dist.EncodeFrame(mkFormat(5, trace.FormatASCII)))
	f.Add(dist.EncodeFrame(mkFormat(5, trace.FormatB2)))
	f.Add(mkFormat(3, trace.FormatASCII))
	f.Add(mkFormat(3, trace.FormatB2))
	f.Add(dist.EncodeFrame(mk(5)[:40])) // sound frame, torn stream

	now := func() time.Time { return base.AddDate(0, 0, 30) }
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewServer(Config{Now: now})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK:
			if _, err := s.Report(); err != nil {
				t.Fatalf("accepted body, broken report: %v", err)
			}
		case http.StatusBadRequest:
			if st := s.StatsNow(); st.Records != 0 || st.Files != 0 || st.Segments != 0 {
				t.Fatalf("rejected body left state behind: %+v", st)
			}
		default:
			t.Fatalf("unexpected status %d", w.Code)
		}

		streams := [][]byte{body}
		if payload, err := dist.DecodeFrame(body); err == nil {
			streams = append(streams, payload)
			got, gerr := DecodeIngestFrame(body)
			if (gerr == nil) != (w.Code == http.StatusOK) {
				t.Fatalf("DecodeIngestFrame error %v, handler status %d", gerr, w.Code)
			}
			if gerr == nil && int64(len(got)) != s.StatsNow().Records {
				t.Fatalf("DecodeIngestFrame yields %d records, the handler ingested %d", len(got), s.StatsNow().Records)
			}
		}
		for _, b := range streams {
			got, gerr := DecodeIngest(b)
			want, werr := referenceDecode(b)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("byte-window decoder error %v, stream reader error %v", gerr, werr)
			}
			if gerr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("byte-window decoder yields %d records, stream reader %d, or they differ", len(got), len(want))
			}
		}
	})
}
