package dist

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a hand-advanced coordinator clock, so lease expiry,
// backoff, and speculation are tested without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// testCoordinator builds a coordinator over n one-byte payloads whose
// Handle records delivery order.
func testCoordinator(t *testing.T, n int, opts Options) (*Coordinator, *[]int) {
	t.Helper()
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	var delivered []int
	c, err := NewCoordinator(Config{
		Kind:     "unit/v1",
		PlanHash: "unit-hash",
		Plan:     []byte("{}"),
		Payloads: payloads,
		Handle: func(id int, result []byte) error {
			delivered = append(delivered, id)
			return nil
		},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, &delivered
}

// claim performs one claim through the HTTP handler. Its request
// context is already cancelled, so a claim with nothing to grant
// answers "claim again" at once instead of parking.
func claim(t *testing.T, c *Coordinator) claimMsg {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return decodeClaim(t, claimRec(c, ctx))
}

// claimRec performs one claim through the HTTP handler under ctx; safe
// off the test goroutine.
func claimRec(c *Coordinator, ctx context.Context) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.handleClaim(rec, httptest.NewRequest("POST", pathClaim, nil).WithContext(ctx))
	return rec
}

// decodeClaim decodes one recorded claim response.
func decodeClaim(t *testing.T, rec *httptest.ResponseRecorder) claimMsg {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("claim: HTTP %d: %s", rec.Code, rec.Body)
	}
	payload, err := DecodeFrame(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	var msg claimMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		t.Fatalf("claim: %v", err)
	}
	return msg
}

// postResult performs one framed result upload, returning the HTTP
// status and body.
func postResult(c *Coordinator, id int, result []byte) (int, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", fmt.Sprintf("%s?id=%d", pathResult, id), bytes.NewReader(EncodeFrame(result)))
	c.handleResult(rec, req)
	return rec.Code, rec.Body.String()
}

// postFail reports one execution failure through the HTTP handler.
func postFail(t *testing.T, c *Coordinator, id int, lease int64, msg string) {
	t.Helper()
	body, err := json.Marshal(failMsg{ID: id, Lease: lease, Error: msg})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.handleFail(rec, httptest.NewRequest("POST", pathFail, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("fail report: HTTP %d: %s", rec.Code, rec.Body)
	}
}

func TestClaimWindowBoundsBuffering(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 5, Options{Now: clk.Now, Window: 2, Lease: time.Minute})

	first, second := claim(t, c), claim(t, c)
	if !first.Claimed || first.ID != 0 || !second.Claimed || second.ID != 1 {
		t.Fatalf("first claims granted %+v, %+v; want tasks 0 and 1", first, second)
	}
	// Task 2 is outside the window until the frontier moves.
	if msg := claim(t, c); msg.Claimed || msg.Done || msg.Fatal != "" {
		t.Fatalf("claim past the window: %+v; want an empty answer", msg)
	}
	// Completing task 1 buffers it (frontier still at 0): window unchanged.
	if code, _ := postResult(c, 1, []byte("r1")); code != http.StatusOK {
		t.Fatalf("result 1: HTTP %d", code)
	}
	if msg := claim(t, c); msg.Claimed {
		t.Fatalf("window opened before the frontier moved: %+v", msg)
	}
	// Completing task 0 delivers 0 and 1 in order and opens the window.
	if code, _ := postResult(c, 0, []byte("r0")); code != http.StatusOK {
		t.Fatalf("result 0: HTTP %d", code)
	}
	if got := fmt.Sprint(*delivered); got != "[0 1]" {
		t.Fatalf("delivered %s, want [0 1]", got)
	}
	if msg := claim(t, c); !msg.Claimed || msg.ID != 2 {
		t.Fatalf("claim after frontier advance: %+v; want task 2", msg)
	}
}

func TestLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 1, Options{
		Now: clk.Now, Lease: 10 * time.Second,
		BackoffBase: 100 * time.Millisecond, BackoffCap: 100 * time.Millisecond,
	})

	first := claim(t, c)
	if !first.Claimed {
		t.Fatalf("first claim not granted: %+v", first)
	}
	if msg := claim(t, c); msg.Claimed {
		t.Fatal("leased task claimable twice without expiry or speculation")
	}
	// Past the lease the task is re-queued, claimable after its backoff.
	clk.Advance(11 * time.Second)
	if msg := claim(t, c); msg.Claimed {
		t.Fatalf("expired task claimable before its backoff elapsed: %+v", msg)
	}
	clk.Advance(time.Second)
	second := claim(t, c)
	if !second.Claimed || second.ID != 0 {
		t.Fatalf("expired task not re-granted: %+v", second)
	}
	if second.Lease == first.Lease {
		t.Fatal("re-grant reused the dead lease ID")
	}
	// A result from the presumed-dead worker's lease still lands: first
	// result wins regardless of which lease produced it.
	if code, _ := postResult(c, 0, []byte("late")); code != http.StatusOK {
		t.Fatalf("late result: HTTP %d", code)
	}
	if got := fmt.Sprint(*delivered); got != "[0]" {
		t.Fatalf("delivered %s, want [0]", got)
	}
}

func TestSpeculationDuplicatesStragglersOnce(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 1, Options{
		Now: clk.Now, Lease: time.Hour, SpeculateAfter: 5 * time.Second,
	})
	first := claim(t, c)
	if !first.Claimed {
		t.Fatalf("claim not granted: %+v", first)
	}
	if msg := claim(t, c); msg.Claimed {
		t.Fatal("speculative duplicate granted before SpeculateAfter")
	}
	clk.Advance(6 * time.Second)
	spec := claim(t, c)
	if !spec.Claimed || spec.ID != 0 || spec.Lease == first.Lease {
		t.Fatalf("straggler not speculatively re-granted: %+v", spec)
	}
	// At two live leases the straggler is not triplicated.
	clk.Advance(6 * time.Second)
	if msg := claim(t, c); msg.Claimed {
		t.Fatalf("straggler granted a third lease: %+v", msg)
	}
	// Both workers answer; the first result wins, the second is a no-op.
	if code, _ := postResult(c, 0, []byte("same bytes")); code != http.StatusOK {
		t.Fatal("first result rejected")
	}
	code, body := postResult(c, 0, []byte("same bytes"))
	if code != http.StatusOK || body != "duplicate" {
		t.Fatalf("second result: HTTP %d %q, want 200 \"duplicate\"", code, body)
	}
	if got := fmt.Sprint(*delivered); got != "[0]" {
		t.Fatalf("delivered %s, want exactly [0]", got)
	}
	if msg := claim(t, c); !msg.Done {
		t.Fatalf("claim after completion: %+v, want done", msg)
	}
}

func TestFailReportRequeuesAndMaxAttemptsFailsRun(t *testing.T) {
	clk := newFakeClock()
	c, _ := testCoordinator(t, 1, Options{
		Now: clk.Now, Lease: time.Minute, MaxAttempts: 2,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 10 * time.Millisecond,
	})
	first := claim(t, c)
	postFail(t, c, first.ID, first.Lease, "exec blew up")
	clk.Advance(time.Second)
	second := claim(t, c)
	if !second.Claimed {
		t.Fatalf("failed task not re-granted: %+v", second)
	}
	// A stale fail report against the dead lease is ignored.
	postFail(t, c, first.ID, first.Lease, "stale")
	if msg := claim(t, c); msg.Fatal != "" {
		t.Fatalf("stale fail report charged an attempt: %+v", msg)
	}
	// The second real failure exhausts MaxAttempts and fails the run.
	postFail(t, c, second.ID, second.Lease, "exec blew up again")
	msg := claim(t, c)
	if msg.Fatal == "" || !strings.Contains(msg.Fatal, "after 2 attempts") {
		t.Fatalf("claim after exhaustion: %+v, want fatal", msg)
	}
	if code, _ := postResult(c, 0, []byte("too late")); code != http.StatusConflict {
		t.Fatalf("result on a failed run: HTTP %d, want 409", code)
	}
}

func TestResultRejectsDamagedUploadsAndBadIDs(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 1, Options{Now: clk.Now})
	rec := httptest.NewRecorder()
	c.handleResult(rec, httptest.NewRequest("POST", pathResult+"?id=0",
		bytes.NewReader(EncodeFrame([]byte("x"))[:8])))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated upload: HTTP %d, want 400", rec.Code)
	}
	if code, _ := postResult(c, 7, []byte("x")); code != http.StatusBadRequest {
		t.Fatalf("out-of-range id: HTTP %d, want 400", code)
	}
	if len(*delivered) != 0 {
		t.Fatalf("damaged uploads delivered results: %v", *delivered)
	}
}

func TestJournalResumeSkipsCompletedTasks(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	opts := Options{Now: clk.Now, JournalDir: dir}

	c1, d1 := testCoordinator(t, 3, opts)
	if c1.Resumed() != 0 {
		t.Fatalf("fresh run resumed %d tasks", c1.Resumed())
	}
	// Complete tasks 0 and 2, then "crash": 2 stays buffered past the
	// frontier and both are spooled.
	for _, id := range []int{0, 2} {
		if code, _ := postResult(c1, id, []byte(fmt.Sprintf("result-%d", id))); code != http.StatusOK {
			t.Fatalf("result %d rejected", id)
		}
	}
	if got := fmt.Sprint(*d1); got != "[0]" {
		t.Fatalf("pre-crash delivery %s, want [0]", got)
	}

	// Corrupt spools must be re-executed, not merged: tear task 2's file.
	spool := filepath.Join(dir, spoolName(2))
	b, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, d2 := testCoordinator(t, 3, opts)
	if c2.Resumed() != 1 {
		t.Fatalf("resumed %d tasks, want 1 (task 0 valid, task 2 torn)", c2.Resumed())
	}
	if got := fmt.Sprint(*d2); got != "[0]" {
		t.Fatalf("resume delivery %s, want [0]", got)
	}
	if msg := claim(t, c2); !msg.Claimed || msg.ID != 1 {
		t.Fatalf("first claim after resume: %+v, want task 1", msg)
	}
	if msg := claim(t, c2); !msg.Claimed || msg.ID != 2 {
		t.Fatalf("second claim after resume: %+v, want torn task 2", msg)
	}
	for _, id := range []int{1, 2} {
		if code, _ := postResult(c2, id, []byte(fmt.Sprintf("result-%d", id))); code != http.StatusOK {
			t.Fatalf("result %d rejected", id)
		}
	}
	if got := fmt.Sprint(*d2); got != "[0 1 2]" {
		t.Fatalf("final delivery %s, want [0 1 2]", got)
	}
}

func TestJournalRefusesForeignRun(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	if _, err := NewCoordinator(Config{
		Kind: "unit/v1", PlanHash: "hash-a", Plan: []byte("{}"),
		Payloads: [][]byte{{0}}, Handle: func(int, []byte) error { return nil },
	}, Options{Now: clk.Now, JournalDir: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := NewCoordinator(Config{
		Kind: "unit/v1", PlanHash: "hash-b", Plan: []byte("{}"),
		Payloads: [][]byte{{0}}, Handle: func(int, []byte) error { return nil },
	}, Options{Now: clk.Now, JournalDir: dir})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("foreign journal accepted: %v", err)
	}
}

func TestCoordinatorRequiresClock(t *testing.T) {
	_, err := NewCoordinator(Config{
		Kind: "unit/v1", PlanHash: "h", Plan: []byte("{}"),
		Payloads: [][]byte{{0}}, Handle: func(int, []byte) error { return nil },
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "Now") {
		t.Fatalf("clock-free coordinator accepted: %v", err)
	}
}

func TestParkedClaimGrantsWhenWindowOpens(t *testing.T) {
	clk := newFakeClock()
	// A claim reads the clock holding the coordinator lock, so a read
	// seen here means that claim looks at the queue before any later
	// result lands.
	read := make(chan struct{}, 1)
	now := func() time.Time {
		select {
		case read <- struct{}{}:
		default:
		}
		return clk.Now()
	}
	c, _ := testCoordinator(t, 2, Options{Now: now, Window: 1, Lease: time.Minute})
	if msg := claim(t, c); !msg.Claimed || msg.ID != 0 {
		t.Fatalf("first claim: %+v; want task 0", msg)
	}
	<-read
	// Task 1 is outside the window: the claim finds nothing, parks until
	// a result moves the frontier, then answers with the task the move
	// made claimable.
	parked := make(chan *httptest.ResponseRecorder, 1)
	go func() { parked <- claimRec(c, context.Background()) }()
	<-read
	if code, _ := postResult(c, 0, []byte("r0")); code != http.StatusOK {
		t.Fatalf("result 0: HTTP %d", code)
	}
	if msg := decodeClaim(t, <-parked); !msg.Claimed || msg.ID != 1 {
		t.Fatalf("parked claim answered %+v; want task 1", msg)
	}
}

func TestParkedClaimEndsWithItsRequest(t *testing.T) {
	clk := newFakeClock()
	c, _ := testCoordinator(t, 1, Options{Now: clk.Now, Lease: time.Minute})
	if msg := claim(t, c); !msg.Claimed {
		t.Fatalf("first claim: %+v; want a grant", msg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan *httptest.ResponseRecorder, 1)
	go func() { parked <- claimRec(c, ctx) }()
	cancel()
	if msg := decodeClaim(t, <-parked); msg.Claimed || msg.Done || msg.Fatal != "" {
		t.Fatalf("claim whose request ended answered %+v; want an empty answer", msg)
	}
}

// send performs one request with the given protocol version and worker
// name headers (each left off when empty), returning status and body.
func send(t *testing.T, base, method, path, version, name string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if version != "" {
		req.Header.Set(headerProtocol, version)
	}
	if name != "" {
		req.Header.Set(headerWorker, name)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// finish has the named worker claim and complete c's single task.
func finish(t *testing.T, base, name string) {
	t.Helper()
	code, body := send(t, base, "POST", pathClaim, protocolVersion, name, nil)
	payload, err := DecodeFrame(body)
	if code != http.StatusOK || err != nil {
		t.Fatalf("claim: HTTP %d, %v", code, err)
	}
	var msg claimMsg
	if err := json.Unmarshal(payload, &msg); err != nil || !msg.Claimed {
		t.Fatalf("claim answered %+v (%v); want a grant", msg, err)
	}
	path := fmt.Sprintf("%s?id=%d", pathResult, msg.ID)
	if code, _ := send(t, base, "POST", path, protocolVersion, name, EncodeFrame([]byte("r"))); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
}

// stillServing fails the test if Serve has returned or would return
// at the current fake time.
func stillServing(t *testing.T, c *Coordinator, served <-chan error) {
	t.Helper()
	c.mu.Lock()
	over := c.overLocked(c.opts.Now())
	c.mu.Unlock()
	select {
	case err := <-served:
		t.Fatalf("Serve returned early: %v", err)
	default:
	}
	if over {
		t.Fatal("Serve would return with a worker still present")
	}
}

// returned waits for Serve's result, failing the test if it never
// comes.
func returned(t *testing.T, served <-chan error) error {
	t.Helper()
	select {
	case err := <-served:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
		return nil
	}
}

func TestServeReturnsWhenEveryWorkerSaysBye(t *testing.T) {
	clk := newFakeClock()
	c, _ := testCoordinator(t, 1, Options{Now: clk.Now, Lease: time.Minute})
	base, served := serve(t, t.Context(), c)
	finish(t, base, "a")
	if code, _ := send(t, base, "GET", pathPlan, protocolVersion, "b", nil); code != http.StatusOK {
		t.Fatalf("plan: HTTP %d", code)
	}
	// Every task is delivered, but both workers are still present.
	send(t, base, "POST", pathBye, protocolVersion, "a", nil)
	stillServing(t, c, served)
	send(t, base, "POST", pathBye, protocolVersion, "b", nil)
	if err := returned(t, served); err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestServeWaitsOutSilentWorker(t *testing.T) {
	clk := newFakeClock()
	c, _ := testCoordinator(t, 1, Options{Now: clk.Now, Lease: 100 * time.Millisecond})
	base, served := serve(t, t.Context(), c)
	finish(t, base, "a")
	// The worker never says bye. Silence up to a lease and the longest
	// retry delay could still be a worker backing off, so Serve waits...
	clk.Advance(max(c.opts.Lease, maxRetryDelay))
	stillServing(t, c, served)
	// ...and past it presumes the worker gone.
	clk.Advance(time.Millisecond)
	if err := returned(t, served); err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

func TestHeaderlessRequestsNeverHoldRunOpen(t *testing.T) {
	clk := newFakeClock()
	c, _ := testCoordinator(t, 1, Options{Now: clk.Now, Lease: time.Minute})
	base, served := serve(t, t.Context(), c)
	finish(t, base, "")
	if err := returned(t, served); err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// dropDone fails the first claim exchange whose response says "done",
// as a lost response would. One worker uses it, from one goroutine.
type dropDone struct {
	dropped int
}

func (d *dropDone) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != pathClaim {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var msg claimMsg
	if payload, err := DecodeFrame(body); err == nil && json.Unmarshal(payload, &msg) == nil && msg.Done {
		if d.dropped++; d.dropped == 1 {
			return nil, fmt.Errorf("done response dropped")
		}
	}
	return resp, nil
}

func TestWorkerReclaimsAfterLostDone(t *testing.T) {
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 1, Options{Now: clk.Now, Lease: time.Minute})
	base, served := serve(t, t.Context(), c)
	tr := &dropDone{}
	echo := func(string, []byte) (ExecFunc, error) {
		return func(_ context.Context, p []byte) ([]byte, error) { return p, nil }, nil
	}
	err := RunWorker(context.Background(), base, WorkerOptions{Client: &http.Client{Transport: tr}, Seed: 1, NewExec: echo})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if tr.dropped != 2 {
		t.Fatalf("worker heard done %d times; want a dropped done and a re-claimed one", tr.dropped)
	}
	// The fake clock never moves, so only the worker's bye ends Serve.
	if err := returned(t, served); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := fmt.Sprint(*delivered); got != "[0]" {
		t.Fatalf("delivered %s, want [0]", got)
	}
}

func TestProtocolVersionRefusedBothWays(t *testing.T) {
	// A worker refuses a coordinator whose plan names no version (protocol
	// 1) or another one, without retrying.
	for _, version := range []string{"", "3"} {
		var plans int
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			plans++
			b, _ := json.Marshal(planInfo{Protocol: version, Kind: "unit/v1", NumTasks: 1})
			w.Write(EncodeFrame(b))
		}))
		err := RunWorker(context.Background(), srv.URL, WorkerOptions{Seed: 1})
		srv.Close()
		want := fmt.Sprintf("coordinator speaks protocol %s, this worker %s", cmp.Or(version, "1"), protocolVersion)
		if err == nil || !strings.Contains(err.Error(), want) || plans != 1 {
			t.Errorf("worker against a protocol %q plan: %v after %d plan fetches; want %q at once", version, err, plans, want)
		}
	}

	// A 409 from a coordinator speaking a newer version ends a worker at
	// once too.
	var plans int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		plans++
		http.Error(w, "dist: worker speaks protocol 2, coordinator 3", http.StatusConflict)
	}))
	err := RunWorker(context.Background(), srv.URL, WorkerOptions{Seed: 1})
	srv.Close()
	if err == nil || !strings.Contains(err.Error(), "coordinator 3") || plans != 1 {
		t.Errorf("worker refused with 409: %v after %d plan fetches; want the refusal at once", err, plans)
	}

	// A coordinator answers a worker speaking another version with 409;
	// a request without the header is served.
	clk := newFakeClock()
	c, _ := testCoordinator(t, 1, Options{Now: clk.Now})
	base, _ := serve(t, t.Context(), c)
	code, body := send(t, base, "GET", pathPlan, "1", "old", nil)
	want := "dist: worker speaks protocol 1, coordinator " + protocolVersion
	if code != http.StatusConflict || !strings.Contains(string(body), want) {
		t.Errorf("protocol 1 request: HTTP %d %q; want 409 %q", code, body, want)
	}
	if code, _ := send(t, base, "GET", pathPlan, "", "", nil); code != http.StatusOK {
		t.Errorf("header-less plan request: HTTP %d; want 200", code)
	}
}

func TestJournalV1Resumes(t *testing.T) {
	// A journal as the first journaled release wrote it: plan.json under
	// journal version 1 plus one framed spool file per completed task.
	dir := t.TempDir()
	files := map[string][]byte{
		journalPlanFile:   []byte(`{"version":"1","kind":"unit/v1","planHash":"unit-hash","numTasks":2}`),
		"r00000000.frame": EncodeFrame([]byte("result-0")),
		"r00000001.frame": EncodeFrame([]byte("result-1")),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	clk := newFakeClock()
	c, delivered := testCoordinator(t, 2, Options{Now: clk.Now, JournalDir: dir})
	if c.Resumed() != 2 {
		t.Fatalf("resumed %d tasks, want 2", c.Resumed())
	}
	if got := fmt.Sprint(*delivered); got != "[0 1]" {
		t.Fatalf("resume delivery %s, want [0 1]", got)
	}
	// Fully spooled, the run needs no worker: Serve returns at once.
	_, served := serve(t, t.Context(), c)
	if err := returned(t, served); err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestWorkerHoldsOneConnection: a worker's exchanges are one at a time,
// so its default client dials the coordinator once and reuses that
// connection for the whole run — never a second one while the first is
// still being handed back. Two workers over many short tasks, counted
// through the default client's dialer over repeated runs.
func TestWorkerHoldsOneConnection(t *testing.T) {
	var dials atomic.Int64
	prev := workerDial
	workerDial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return prev(ctx, network, addr)
	}
	t.Cleanup(func() { workerDial = prev })
	const workers = 2
	for run := 0; run < 25; run++ {
		dials.Store(0)
		c, delivered := testCoordinator(t, 20, Options{Now: newFakeClock().Now, Lease: time.Minute})
		base, served := serve(t, t.Context(), c)
		// Both workers fetch the plan before either claims, so neither
		// can finish the run — and end it — before the other has joined.
		var joined sync.WaitGroup
		joined.Add(workers)
		echo := func(string, []byte) (ExecFunc, error) {
			joined.Done()
			joined.Wait()
			return func(_ context.Context, p []byte) ([]byte, error) { return p, nil }, nil
		}
		wait := startWorkers(t.Context(), base, workers, func(i int) WorkerOptions {
			return WorkerOptions{Seed: int64(run*workers + i), NewExec: echo}
		})
		for i, err := range wait() {
			if err != nil {
				t.Fatalf("run %d: worker %d: %v", run, i, err)
			}
		}
		if err := returned(t, served); err != nil {
			t.Fatalf("run %d: Serve: %v", run, err)
		}
		if len(*delivered) != 20 {
			t.Fatalf("run %d: delivered %d of 20 tasks", run, len(*delivered))
		}
		if n := dials.Load(); n != workers {
			t.Fatalf("run %d: %d workers dialed %d connections, want one each", run, workers, n)
		}
	}
}
