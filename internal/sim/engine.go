// Package sim is a small discrete-event simulation engine: an event heap,
// a virtual clock, and queueing resources. It is the substrate beneath the
// mass-storage-system simulator (internal/mss) that regenerates the paper's
// latency measurements: every queueing, mount, seek and transfer delay in
// Figure 3 and Table 3 is an event scheduled here.
//
// Time is a time.Duration offset from the simulation epoch; the engine is
// single-threaded and deterministic: events at equal times fire in
// scheduling order (a monotonically increasing sequence number breaks
// ties), so simulations are exactly reproducible.
//
// The heap holds only events in flight. Work that is already known in
// time order — the arrivals of a trace — is merged in from outside with
// Arrive rather than scheduled up front, so the heap stays as small as
// the system's concurrency instead of as large as its input.
package sim

import (
	"fmt"
	"time"
)

// Handler receives a scheduled event. A simulated entity that moves
// through several timed stages implements it once and schedules itself,
// instead of allocating a callback per stage.
type Handler interface {
	Fire(now time.Duration)
}

// event is one heap entry, ordered by (at, seq); seq is unique, so the
// order is total and the heap's shape cannot influence it.
type event struct {
	at  time.Duration
	seq uint64
	h   Handler
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine owns the virtual clock and the pending-event heap.
type Engine struct {
	now    time.Duration
	events []event // binary min-heap
	seq    uint64
	steps  uint64
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps reports how many events have been dispatched, arrivals included.
func (e *Engine) Steps() uint64 { return e.steps }

// Schedule queues h to fire at absolute virtual time at. Scheduling in
// the past panics: it indicates a simulator bug, never a data condition.
//
//filemig:hotpath
func (e *Engine) Schedule(at time.Duration, h Handler) {
	e.mustNotPrecedeClock(at)
	e.seq++
	e.events = append(e.events, event{at: at, seq: e.seq, h: h})
	// Sift the new entry up.
	q := e.events
	i := len(q) - 1
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (e *Engine) mustNotPrecedeClock(at time.Duration) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", at, e.now))
	}
}

// step pops the earliest pending event, advances the clock to it and
// fires it.
//
//filemig:hotpath
func (e *Engine) step() {
	q := e.events
	ev := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the handler reference
	q = q[:n]
	e.events = q
	// Sift the former last entry down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	if n > 0 {
		q[i] = last
	}
	e.now = ev.at
	e.steps++
	ev.h.Fire(ev.at)
}

// Arrive delivers an event that was never scheduled: it dispatches every
// pending event strictly earlier than at, moves the clock to at, and
// fires h. Events pending at exactly at fire afterwards, so a caller
// feeding time-sorted arrivals one by one observes precisely the order
// it would have by scheduling every arrival before the first Run — the
// arrivals would hold the lowest sequence numbers — without the heap
// ever holding them. Stop does not interrupt the catch-up. An arrival
// earlier than the clock panics like any scheduling into the past.
func (e *Engine) Arrive(at time.Duration, h Handler) {
	e.mustNotPrecedeClock(at)
	for len(e.events) > 0 && e.events[0].at < at {
		e.step()
	}
	e.now = at
	e.steps++
	h.Fire(at)
}

// Run dispatches events until the queue empties.
func (e *Engine) Run() {
	for len(e.events) > 0 {
		e.step()
	}
}
