package dist

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ExecFunc executes one task payload and returns the result bytes the
// coordinator will merge. Executors must be deterministic: any two
// executions of the same payload must return identical bytes, which is
// what makes retries, speculation, and duplicate deliveries safe.
type ExecFunc func(ctx context.Context, payload []byte) ([]byte, error)

// WorkerOptions tunes a worker's claim loop.
type WorkerOptions struct {
	// Client performs the HTTP requests; wrap its Transport to inject
	// faults in tests. Nil means a fresh client with sane timeouts over
	// a transport of the worker's own, which holds one connection to
	// the coordinator.
	Client *http.Client

	// Seed seeds the worker's jitter RNG and the name it gives the
	// coordinator.
	Seed int64

	// NewExec resolves the executor for the plan served by the
	// coordinator. Nil means DefaultExec.
	NewExec func(kind string, plan []byte) (ExecFunc, error)
}

// maxNetFailures bounds consecutive failed exchanges (transport errors,
// bad frames, 5xx) before a worker gives up on the coordinator: with
// backoff capped at maxRetryDelay that is roughly a minute of a
// coordinator being unreachable, long enough to ride out a coordinator
// restart. Any successful exchange resets the count.
const maxNetFailures = 40

// RunWorker joins the coordinator at baseURL, executes tasks until the
// coordinator reports the run complete, says bye, and returns nil. It
// survives transient transport faults (drops, delays, truncations,
// duplicate deliveries, coordinator restarts) by retrying with jittered
// backoff; it returns an error if the run fails, the coordinator speaks
// another protocol version or stays unreachable past maxNetFailures
// consecutive attempts, or ctx is cancelled.
func RunWorker(ctx context.Context, baseURL string, opts WorkerOptions) error {
	if opts.Client == nil {
		opts.Client = newWorkerClient()
		defer opts.Client.CloseIdleConnections()
	}
	if opts.NewExec == nil {
		opts.NewExec = DefaultExec
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	w := &worker{
		base:   strings.TrimRight(baseURL, "/"),
		name:   strconv.FormatUint(rng.Uint64(), 36),
		rng:    rng,
		client: opts.Client,
	}
	var info planInfo
	if err := w.call(ctx, http.MethodGet, pathPlan, &info); err != nil {
		return err
	}
	if info.Protocol != protocolVersion {
		return fmt.Errorf("dist: coordinator speaks protocol %s, this worker %s; run matching builds",
			cmp.Or(info.Protocol, "1"), protocolVersion)
	}
	exec, err := opts.NewExec(info.Kind, info.Plan)
	if err != nil {
		return err
	}
	for {
		var msg claimMsg
		if err := w.call(ctx, http.MethodPost, pathClaim, &msg); err != nil {
			return err
		}
		switch {
		case msg.Done:
			// Best effort: a lost bye only keeps the coordinator up until
			// this worker counts as silent.
			for range 3 {
				if _, err := w.exchangeRaw(ctx, http.MethodPost, pathBye, nil); err == nil {
					break
				}
			}
			return nil
		case msg.Fatal != "":
			return errFatal{msg: msg.Fatal}
		case msg.Claimed:
			w.execute(ctx, exec, msg)
		}
	}
}

// workerDial opens a default worker client's connection to the
// coordinator.
var workerDial = (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext

// newWorkerClient returns the client a worker runs with when it is
// given none. A worker makes one exchange at a time, so its transport,
// shared with nothing, holds at most one connection to the coordinator:
// the next exchange waits for the connection the last one is handing
// back rather than dialing a second beside it.
func newWorkerClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		DialContext:         workerDial,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// worker is one claim loop's state.
type worker struct {
	base     string
	name     string // sent as headerWorker on every request
	rng      *rand.Rand
	client   *http.Client
	netFails int
}

// call performs one framed exchange and decodes its JSON payload into
// out, retrying failed exchanges (an undecodable payload included)
// until one succeeds, the coordinator reports a fatal error, the
// coordinator stays unreachable, or ctx ends.
func (w *worker) call(ctx context.Context, method, path string, out any) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		raw, err := w.exchangeRaw(ctx, method, path, nil)
		if err == nil {
			var payload []byte
			if payload, err = DecodeFrame(raw); err == nil {
				if err = json.Unmarshal(payload, out); err != nil {
					err = fmt.Errorf("dist: bad %s response: %w", path, err)
				}
			}
		}
		if err == nil {
			w.netFails = 0
			return nil
		}
		if err := w.netFailure(ctx, err); err != nil {
			return err
		}
	}
}

// execute runs one claimed task and reports the outcome. Execution
// errors are reported to the coordinator (releasing the lease for
// retry) but do not stop the worker: the coordinator owns retry
// policy. Upload failures are retried here a few times; past that the
// lease expiry path takes over.
func (w *worker) execute(ctx context.Context, exec ExecFunc, msg claimMsg) {
	result, err := exec(ctx, msg.Payload)
	if err != nil {
		body, merr := json.Marshal(failMsg{ID: msg.ID, Lease: msg.Lease, Error: err.Error()})
		if merr == nil {
			w.exchangeRaw(ctx, http.MethodPost, pathFail, body) // best effort
		}
		return
	}
	path := pathResult + "?id=" + strconv.Itoa(msg.ID) + "&lease=" + strconv.FormatInt(msg.Lease, 10)
	for attempt := 1; attempt <= 5; attempt++ {
		if ctx.Err() != nil {
			return
		}
		if _, err := w.exchangeRaw(ctx, http.MethodPost, path, EncodeFrame(result)); err == nil {
			w.netFails = 0
			return
		}
		w.sleep(ctx, backoff(w.rng, 20*time.Millisecond, 500*time.Millisecond, attempt))
	}
}

// netFailure charges one failed exchange, sleeping with backoff; it
// returns cause at once if the coordinator reported it fatal, and an
// error once maxNetFailures consecutive exchanges failed.
func (w *worker) netFailure(ctx context.Context, cause error) error {
	if errors.As(cause, new(errFatal)) {
		return cause
	}
	w.netFails++
	if w.netFails >= maxNetFailures {
		return fmt.Errorf("dist: coordinator unreachable after %d consecutive attempts: %w", w.netFails, cause)
	}
	w.sleep(ctx, backoff(w.rng, 20*time.Millisecond, maxRetryDelay, w.netFails))
	return nil
}

// sleep waits for d or ctx, whichever ends first.
func (w *worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// exchangeRaw performs one HTTP exchange, returning the body on 2xx
// and an error otherwise. A 409 Conflict carries a run-fatal message.
func (w *worker) exchangeRaw(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(headerProtocol, protocolVersion)
	req.Header.Set(headerWorker, w.name)
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxFramePayload+1024))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusConflict {
		return nil, errFatal{msg: strings.TrimSpace(string(raw))}
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("dist: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}
