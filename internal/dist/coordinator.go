package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Config describes one coordinated run: a fixed ordered task list, the
// plan blob workers execute it from, and the in-order result consumer.
type Config struct {
	// Kind selects the worker-side executor (KindGrid, KindB2Shard).
	Kind string
	// PlanHash identifies the plan; workers echo it back implicitly by
	// fetching the plan blob, and journals refuse to resume under a
	// different hash.
	PlanHash string
	// Plan is the kind-specific plan blob served to workers.
	Plan []byte
	// Payloads holds one task payload per task ID.
	Payloads [][]byte
	// Handle consumes results in strict task order (0, 1, 2, ...). It
	// is never called twice for one ID, and a Handle error fails the
	// run. Calls are serialized.
	Handle func(id int, result []byte) error
}

// taskState tracks one task through the claim/retry/complete life
// cycle. All fields are guarded by the coordinator mutex.
type taskState struct {
	done     bool
	result   []byte              // buffered until delivered in order
	attempts int                 // failed or expired leases so far
	readyAt  time.Time           // pending: claimable at/after this time
	leases   map[int64]time.Time // active lease ID -> expiry deadline
	specAt   time.Time           // leased: speculative duplicate allowed after this
	lastErr  string
}

// Coordinator owns a run's task queue and serves the worker protocol.
// Create with NewCoordinator, drive with Serve.
type Coordinator struct {
	cfg  Config
	opts Options
	jr   *journal

	mu       sync.Mutex
	tasks    []taskState
	frontier int // next task ID to deliver to Handle
	leaseSeq int64
	rng      *rand.Rand
	fatal    error
	wake     chan struct{}        // closed and replaced on every change a parked claim or Serve awaits
	heard    map[string]time.Time // named worker -> last request; deleted on bye
	left     bool                 // Serve has returned: claims no longer park
	resumed  int                  // tasks loaded done from the journal
}

// NewCoordinator validates the config, opens (and replays) the journal
// if one is configured, and returns a coordinator ready to Serve.
func NewCoordinator(cfg Config, opts Options) (*Coordinator, error) {
	if len(cfg.Payloads) == 0 {
		return nil, errors.New("dist: a run needs at least one task")
	}
	if cfg.Handle == nil {
		return nil, errors.New("dist: Config.Handle is required")
	}
	opts = opts.withDefaults()
	if opts.Now == nil {
		return nil, errors.New("dist: Options.Now is required on coordinators (pass host.Now at the boundary)")
	}
	c := &Coordinator{
		cfg:   cfg,
		opts:  opts,
		tasks: make([]taskState, len(cfg.Payloads)),
		rng:   rand.New(rand.NewSource(opts.Seed)),
		wake:  make(chan struct{}),
		heard: map[string]time.Time{},
	}
	if opts.JournalDir != "" {
		jr, err := openJournal(opts.JournalDir, cfg.Kind, cfg.PlanHash, len(cfg.Payloads))
		if err != nil {
			return nil, err
		}
		c.jr = jr
		for id := range c.tasks {
			if payload, ok := jr.get(id); ok {
				c.tasks[id].done = true
				c.tasks[id].result = payload
				c.resumed++
			}
		}
		if err := c.deliverLocked(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Resumed reports how many tasks were restored already-complete from
// the journal — zero on a fresh run.
func (c *Coordinator) Resumed() int { return c.resumed }

// Serve runs the coordinator protocol on ln until the run fails, ctx
// is cancelled, or every task has been delivered and every worker that
// named itself has said bye or fallen silent (see overLocked). On
// cancellation the HTTP server drains gracefully and the journal (if
// any) is already durable, so a new coordinator over the same journal
// directory resumes without re-running completed tasks; the returned
// error is ctx's.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathPlan, c.handlePlan)
	mux.HandleFunc("POST "+pathClaim, c.handleClaim)
	mux.HandleFunc("POST "+pathResult, c.handleResult)
	mux.HandleFunc("POST "+pathFail, c.handleFail)
	mux.HandleFunc("POST "+pathBye, c.handleBye)
	srv := &http.Server{Handler: c.track(mux)}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// The tick re-queues expired leases even with zero traffic (every
	// worker dead), and its wake bounds every parked claim and every
	// check for silent workers.
	tick := time.NewTicker(expiryInterval(c.opts.Lease))
	defer tick.Stop()

	var runErr error
	for over := false; !over; {
		c.mu.Lock()
		over, runErr = c.overLocked(c.opts.Now()), c.fatal
		wake := c.wake
		c.mu.Unlock()
		if over {
			break
		}
		select {
		case <-wake:
		case <-tick.C:
			c.mu.Lock()
			c.expireLocked(c.opts.Now())
			c.wakeLocked()
			c.mu.Unlock()
		case <-ctx.Done():
			runErr, over = ctx.Err(), true
		case err := <-serveErr:
			runErr, over = fmt.Errorf("dist: coordinator server: %w", err), true
		}
	}

	c.mu.Lock()
	c.left = true
	c.wakeLocked()
	c.mu.Unlock()
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	return runErr
}

// overLocked reports whether Serve may return: the run has failed, or
// every task is delivered and every named worker has said bye or been
// silent longer than a lease and the longest worker retry delay.
func (c *Coordinator) overLocked(now time.Time) bool {
	if c.fatal != nil {
		return true
	}
	if c.frontier < len(c.tasks) {
		return false
	}
	//lint:sorted-ok an all-silent test answers the same in any order
	for _, at := range c.heard {
		if now.Sub(at) <= max(c.opts.Lease, maxRetryDelay) {
			return false
		}
	}
	return true
}

// wakeLocked wakes every parked claim and Serve's loop.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// track wraps the protocol handlers: a request naming another protocol
// version is refused with 409, which workers treat as fatal, and a
// request naming its worker records that worker as alive.
func (c *Coordinator) track(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(headerProtocol); v != "" && v != protocolVersion {
			http.Error(w, fmt.Sprintf("dist: worker speaks protocol %s, coordinator %s; run matching builds",
				v, protocolVersion), http.StatusConflict)
			return
		}
		if name := r.Header.Get(headerWorker); name != "" {
			c.mu.Lock()
			c.heard[name] = c.opts.Now()
			c.mu.Unlock()
		}
		next.ServeHTTP(w, r)
	})
}

// expiryInterval picks the lease-expiry ticker period: a quarter lease,
// clamped to [5 ms, 1 s].
func expiryInterval(lease time.Duration) time.Duration {
	d := lease / 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// handlePlan serves the framed run description.
func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	info := planInfo{Protocol: protocolVersion, Kind: c.cfg.Kind, PlanHash: c.cfg.PlanHash,
		NumTasks: len(c.cfg.Payloads), Plan: c.cfg.Plan}
	b, err := json.Marshal(info)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(EncodeFrame(b))
}

// handleClaim hands out the lowest eligible task in the merge window,
// or tells the worker to exit (done) or abort (fatal). With nothing to
// grant the claim parks until the next wake or the request's end, then
// answers whatever a second look finds — possibly "claim again".
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	now := c.opts.Now()
	c.expireLocked(now)
	msg, wake, park := c.claimLocked(now), c.wake, !c.left
	c.mu.Unlock()
	if park && !msg.Claimed && !msg.Done && msg.Fatal == "" {
		select {
		case <-wake:
		case <-r.Context().Done():
		}
		c.mu.Lock()
		msg = c.claimLocked(c.opts.Now())
		c.mu.Unlock()
	}
	b, err := json.Marshal(msg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(EncodeFrame(b))
}

// claimLocked implements the claim policy: within the bounded window
// past the delivery frontier, prefer the lowest pending task whose
// backoff has elapsed; with none pending, hand out a speculative
// duplicate lease on the lowest straggler. Speculation is safe because
// results are byte-identical — the first result wins and the rest are
// discarded as duplicates.
func (c *Coordinator) claimLocked(now time.Time) claimMsg {
	if c.fatal != nil {
		return claimMsg{Fatal: c.fatal.Error()}
	}
	if c.frontier >= len(c.tasks) {
		return claimMsg{Done: true}
	}
	hi := min(c.frontier+c.opts.Window, len(c.tasks))
	grant := func(id int) claimMsg {
		t := &c.tasks[id]
		c.leaseSeq++
		if t.leases == nil {
			t.leases = map[int64]time.Time{}
		}
		t.leases[c.leaseSeq] = now.Add(c.opts.Lease)
		t.specAt = now.Add(c.opts.SpeculateAfter)
		return claimMsg{ID: id, Lease: c.leaseSeq, Payload: c.cfg.Payloads[id], Claimed: true}
	}
	for id := c.frontier; id < hi; id++ {
		t := &c.tasks[id]
		if !t.done && len(t.leases) == 0 && !t.readyAt.After(now) {
			return grant(id)
		}
	}
	if c.opts.SpeculateAfter > 0 {
		for id := c.frontier; id < hi; id++ {
			t := &c.tasks[id]
			if !t.done && len(t.leases) == 1 && !t.specAt.After(now) {
				return grant(id)
			}
		}
	}
	return claimMsg{}
}

// expireLocked re-queues tasks whose every lease has expired: the
// worker holding the lease is presumed dead, the attempt is charged,
// and the task becomes claimable again after a jittered exponential
// backoff. A task exhausting MaxAttempts fails the whole run.
func (c *Coordinator) expireLocked(now time.Time) {
	for id := c.frontier; id < len(c.tasks) && id < c.frontier+c.opts.Window; id++ {
		t := &c.tasks[id]
		if t.done || len(t.leases) == 0 {
			continue
		}
		var lids []int64
		for lid := range t.leases {
			lids = append(lids, lid)
		}
		slices.Sort(lids)
		for _, lid := range lids {
			if t.leases[lid].After(now) {
				continue
			}
			delete(t.leases, lid)
			c.chargeAttemptLocked(id, now, "lease expired (worker presumed dead)")
		}
	}
}

// chargeAttemptLocked records one failed or expired attempt on a task
// and either re-queues it with backoff or fails the run.
func (c *Coordinator) chargeAttemptLocked(id int, now time.Time, why string) {
	t := &c.tasks[id]
	if t.done {
		return
	}
	t.attempts++
	t.lastErr = why
	if t.attempts >= c.opts.MaxAttempts {
		c.failLocked(fmt.Errorf("dist: task %d failed after %d attempts: %s", id, t.attempts, why))
		return
	}
	if len(t.leases) == 0 {
		t.readyAt = now.Add(backoff(c.rng, c.opts.BackoffBase, c.opts.BackoffCap, t.attempts))
	}
}

// failLocked records the run-level failure and wakes Serve.
func (c *Coordinator) failLocked(err error) {
	if c.fatal != nil {
		return
	}
	c.fatal = err
	c.wakeLocked()
}

// handleResult accepts one task's result: the first result for a task
// wins (every run's results are byte-identical, so duplicates — from
// speculation, retries, or a duplicated delivery — are simply
// discarded), the result is spooled to the journal before the task is
// marked done, and completed results are handed to Handle in strict
// task order.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil || id < 0 || id >= len(c.tasks) {
		http.Error(w, "dist: bad task id", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFramePayload+1024))
	if err != nil {
		http.Error(w, "dist: short read: "+err.Error(), http.StatusBadRequest)
		return
	}
	payload, err := DecodeFrame(body)
	if err != nil {
		// A truncated or corrupt upload: reject so the worker retries.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		http.Error(w, c.fatal.Error(), http.StatusConflict)
		return
	}
	t := &c.tasks[id]
	if t.done {
		w.Write([]byte("duplicate"))
		return
	}
	if c.jr != nil {
		if err := c.jr.put(id, payload); err != nil {
			c.failLocked(err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	t.done = true
	t.result = payload
	t.leases = nil
	if err := c.deliverLocked(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write([]byte("ok"))
}

// deliverLocked advances the frontier, handing buffered results to
// Handle in task order, and wakes parked claims and Serve if it moved.
// On a Handle error it fails the run.
func (c *Coordinator) deliverLocked() error {
	from := c.frontier
	for c.frontier < len(c.tasks) && c.tasks[c.frontier].done {
		t := &c.tasks[c.frontier]
		if err := c.cfg.Handle(c.frontier, t.result); err != nil {
			err = fmt.Errorf("dist: merging task %d: %w", c.frontier, err)
			c.failLocked(err)
			return err
		}
		t.result = nil
		c.frontier++
	}
	if c.frontier > from {
		c.wakeLocked()
	}
	return nil
}

// handleFail releases a worker's lease after an execution error and
// charges the attempt.
func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var msg failMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if msg.ID < 0 || msg.ID >= len(c.tasks) {
		http.Error(w, "dist: bad task id", http.StatusBadRequest)
		return
	}
	now := c.opts.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &c.tasks[msg.ID]
	if _, held := t.leases[msg.Lease]; held && !t.done {
		delete(t.leases, msg.Lease)
		c.chargeAttemptLocked(msg.ID, now, msg.Error)
	}
	w.Write([]byte("ok"))
}

// handleBye forgets a worker that heard "done" and is leaving.
func (c *Coordinator) handleBye(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	delete(c.heard, r.Header.Get(headerWorker))
	c.wakeLocked()
	c.mu.Unlock()
	w.Write([]byte("ok"))
}
