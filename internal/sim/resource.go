package sim

import (
	"time"
)

// Resource is a k-server FIFO queueing station: up to Servers requests are
// in service at once, the rest wait in arrival order. It models every
// contended element of the MSS — individual disks, tape drives, silo robot
// arms, and the human operator pool that mounts shelf tapes.
type Resource struct {
	name    string
	servers int
	engine  *Engine

	busy    int
	waiting waitQueue

	// Statistics.
	arrivals   uint64
	totalWait  time.Duration
	maxWait    time.Duration
	maxQueue   int
	lastChange time.Duration
	busyTime   time.Duration // integral of busy servers over time
}

// Waiter is told when the server it asked for is granted. A simulated
// entity that queues at several resources implements it once (next to
// Handler) instead of allocating a callback per acquisition.
type Waiter interface {
	Granted(now time.Duration, wait time.Duration)
}

type acquisition struct {
	arrived time.Duration
	w       Waiter
}

// waitQueue is a FIFO ring of acquisitions: push and pop are O(1) and
// the backing array is reused, however long the queue has been busy.
type waitQueue struct {
	buf  []acquisition // len is zero or a power of two
	head int
	n    int
}

func (q *waitQueue) push(a acquisition) {
	if q.n == len(q.buf) {
		grown := make([]acquisition, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = a
	q.n++
}

func (q *waitQueue) pop() acquisition {
	a := q.buf[q.head]
	q.buf[q.head] = acquisition{} // drop the waiter reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return a
}

// NewResource creates a resource with the given number of parallel servers.
func NewResource(engine *Engine, name string, servers int) *Resource {
	if servers < 1 {
		panic("sim: resource needs at least one server")
	}
	return &Resource{name: name, servers: servers, engine: engine}
}

// Name reports the resource's name.
func (r *Resource) Name() string { return r.name }

func (r *Resource) accumulate(now time.Duration) {
	r.busyTime += time.Duration(int64(now-r.lastChange) * int64(r.busy) / int64(r.servers))
	r.lastChange = now
}

// Request asks for a server. w is told (possibly immediately) once a
// server is free, receiving the grant time and the time spent queued. The
// holder must call Release exactly once when done.
func (r *Resource) Request(w Waiter) {
	now := r.engine.Now()
	r.arrivals++
	if r.busy < r.servers {
		r.accumulate(now)
		r.busy++
		w.Granted(now, 0)
		return
	}
	r.waiting.push(acquisition{arrived: now, w: w})
	if r.waiting.n > r.maxQueue {
		r.maxQueue = r.waiting.n
	}
}

// Release frees one server, handing it to the longest-waiting requester if
// any. Calling Release with no server held panics.
func (r *Resource) Release() {
	now := r.engine.Now()
	if r.busy == 0 {
		panic("sim: Release on idle resource " + r.name)
	}
	if r.waiting.n == 0 {
		r.accumulate(now)
		r.busy--
		return
	}
	next := r.waiting.pop()
	wait := now - next.arrived
	r.totalWait += wait
	if wait > r.maxWait {
		r.maxWait = wait
	}
	// The server transfers directly to the next requester; busy unchanged.
	next.w.Granted(now, wait)
}

// Stats is a snapshot of a resource's lifetime statistics.
type Stats struct {
	Name        string
	Arrivals    uint64
	MeanWait    time.Duration
	MaxWait     time.Duration
	MaxQueue    int
	Utilization float64 // mean fraction of servers busy over elapsed time
}

// Stats summarises behaviour up to the current virtual time.
func (r *Resource) Stats() Stats {
	now := r.engine.Now()
	var meanWait time.Duration
	if r.arrivals > 0 {
		meanWait = r.totalWait / time.Duration(r.arrivals)
	}
	util := 0.0
	if now > 0 {
		busyTime := r.busyTime + time.Duration(int64(now-r.lastChange)*int64(r.busy)/int64(r.servers))
		util = float64(busyTime) / float64(now)
	}
	return Stats{
		Name:        r.name,
		Arrivals:    r.arrivals,
		MeanWait:    meanWait,
		MaxWait:     r.maxWait,
		MaxQueue:    r.maxQueue,
		Utilization: util,
	}
}
