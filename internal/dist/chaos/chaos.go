// Package chaos injects faults for exercising the recovery machinery of
// the dist layer and of everything that writes through its durable
// path: Transport, a fault-injecting http.RoundTripper, and Disk, a
// fault-injecting file system (disk.go). Wrapped around a worker's HTTP
// client, Transport drops requests before they are sent, drops
// responses after the server has processed them (the nastier half: the
// work happened, the worker doesn't know), delays exchanges, duplicates
// deliveries, and truncates or corrupts response bodies — every failure
// mode the coordinator/worker protocol claims to survive. Its faults
// fire from a seeded RNG, so a failing chaos test replays exactly;
// injection shapes wall-clock behavior and transport traffic only,
// never the bytes of a completed run's results.
package chaos

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrInjected is the transport error returned for injected drops, so
// tests (and log readers) can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Options sets each fault's independent firing probability (0 to 1).
type Options struct {
	// Seed seeds the fault RNG.
	Seed int64
	// DropRequest is the probability a request is never sent.
	DropRequest float64
	// DropResponse is the probability a delivered request's response is
	// discarded and replaced with an error — the server did the work,
	// the client sees a failure.
	DropResponse float64
	// Duplicate is the probability a request is delivered twice before
	// its response is returned.
	Duplicate float64
	// Truncate is the probability a response body is cut short.
	Truncate float64
	// Corrupt is the probability one response body byte is flipped.
	Corrupt float64
	// DelayProb is the probability an exchange is delayed; MaxDelay
	// bounds the injected delay.
	DelayProb float64
	MaxDelay  time.Duration
}

// Transport injects faults around a base RoundTripper.
type Transport struct {
	base http.RoundTripper
	opts Options

	mu       sync.Mutex
	rng      *rand.Rand
	injected int64
	total    int64
}

// New wraps base (nil means http.DefaultTransport) with fault
// injection.
func New(base http.RoundTripper, opts Options) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Counts reports how many exchanges had at least one fault injected,
// out of how many total — tests assert the injected share.
func (t *Transport) Counts() (injected, total int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected, t.total
}

// plan is one exchange's drawn faults.
type plan struct {
	dropReq  bool
	dropResp bool
	dup      bool
	trunc    bool
	corrupt  bool
	delay    time.Duration
}

// any reports whether the plan injects anything.
func (p plan) any() bool {
	return p.dropReq || p.dropResp || p.dup || p.trunc || p.corrupt || p.delay > 0
}

// draw rolls one exchange's faults under the lock.
func (t *Transport) draw() plan {
	t.mu.Lock()
	defer t.mu.Unlock()
	var p plan
	o := &t.opts
	p.dropReq = t.rng.Float64() < o.DropRequest
	p.dropResp = t.rng.Float64() < o.DropResponse
	p.dup = t.rng.Float64() < o.Duplicate
	p.trunc = t.rng.Float64() < o.Truncate
	p.corrupt = t.rng.Float64() < o.Corrupt
	if o.MaxDelay > 0 && t.rng.Float64() < o.DelayProb {
		p.delay = time.Duration(t.rng.Int63n(int64(o.MaxDelay))) + 1
	}
	t.total++
	if p.any() {
		t.injected++
	}
	return p
}

// RoundTrip delivers one exchange through the drawn faults.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.draw()

	// Buffer the body so the request can be replayed for duplication.
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	clone := func() *http.Request {
		r := req.Clone(req.Context())
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		return r
	}

	if p.delay > 0 {
		timer := time.NewTimer(p.delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if p.dropReq {
		return nil, ErrInjected
	}
	if p.dup {
		// First delivery: the server processes it; the response is
		// discarded, so the client-visible exchange is the second copy.
		if resp, err := t.base.RoundTrip(clone()); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	resp, err := t.base.RoundTrip(clone())
	if err != nil {
		return nil, err
	}
	if p.dropResp {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, ErrInjected
	}
	if p.trunc || p.corrupt {
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		if p.trunc && len(b) > 0 {
			b = b[:t.rng.Intn(len(b))]
		}
		if p.corrupt && len(b) > 0 {
			b[t.rng.Intn(len(b))] ^= 0x40
		}
		t.mu.Unlock()
		resp.Body = io.NopCloser(bytes.NewReader(b))
		resp.ContentLength = int64(len(b))
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}
