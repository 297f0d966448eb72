package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracing lives in the benchmark's own files in this round: a span wraps
// each call into a layer's public functions. Spans are per call (about a
// millisecond of work or more each), never per record, are kept in
// memory, and are written out once at exit.

// span is one timed call. Start and End are nanoseconds since the
// tracer was created; Parent is the ID of the span that caused this one,
// 0 for a root; Trace identifies the request — workload/rep — the span
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// dur is the span's duration.
func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span's layer: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer records spans in memory. A nil tracer records nothing, which is
// how the untraced twin of a whole path runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// newTracer starts an empty trace.
func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	t  *tracer
	id int
}

// root opens a root span of a new trace.
func (t *tracer) root(trace, name string) spanRef { return t.open(0, trace, name) }

// open records a span's start.
func (t *tracer) open(parent int, trace, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(time.Since(t.epoch))})
	return spanRef{t: t, id: id}
}

// child opens a span caused by this one, in the same trace.
func (r spanRef) child(name string) spanRef {
	if r.t == nil {
		return spanRef{}
	}
	r.t.mu.Lock()
	trace := r.t.spans[r.id-1].Trace
	r.t.mu.Unlock()
	return r.t.open(r.id, trace, name)
}

// end closes the span and returns its duration.
func (r spanRef) end() time.Duration {
	if r.t == nil {
		return 0
	}
	now := int64(time.Since(r.t.epoch))
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	s := &r.t.spans[r.id-1]
	s.End = now
	return s.dur()
}

// do runs fn inside a child span and returns the span's duration.
func (r spanRef) do(name string, fn func() error) (time.Duration, error) {
	if r.t == nil {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	c := r.child(name)
	err := fn()
	return c.end(), err
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval that its child spans cover. Children may overlap
// each other (parallel work) or stick out past the parent; only the
// union of their intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// unattributedShare is the share of a whole-path root span that no
// layer's span accounts for: the root's own self time over its duration.
func unattributedShare(spans []span, root int) float64 {
	d := spans[root-1].dur()
	if d <= 0 {
		return 0
	}
	return float64(selfTimes(spans)[root]) / float64(d)
}

// layerSelfTimes sums self time per layer over the spans of one trace,
// the root excluded.
func layerSelfTimes(spans []span, trace string, root int) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Trace == trace && s.ID != root {
			out[s.layer()] += self[s.ID]
		}
	}
	return out
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
