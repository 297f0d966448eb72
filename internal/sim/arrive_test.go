package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// feedUpFront is the reference admission loop — the one mss.Replay ran
// before arrivals were merged in: every arrival is scheduled into the
// heap before the clock starts, so arrivals hold the lowest sequence
// numbers.
func feedUpFront(e *Engine, at []time.Duration, arrive func(i int, now time.Duration)) {
	for i := range at {
		i := i
		e.Schedule(at[i], Event(func(now time.Duration) { arrive(i, now) }))
	}
	e.Run()
}

// feedMerged hands the same time-sorted arrivals to Arrive one by one;
// the heap only ever holds what is in flight.
func feedMerged(e *Engine, at []time.Duration, arrive func(i int, now time.Duration)) {
	for i := range at {
		i := i
		e.Arrive(at[i], Event(func(now time.Duration) { arrive(i, now) }))
	}
	e.Run()
}

type firing struct {
	job  int
	what string
	now  time.Duration
	wait time.Duration
}

// stagedJob exercises the Handler/Waiter form: one value queued at a
// resource and scheduled on the engine, as an mss request is.
type stagedJob struct {
	id      int
	e       *Engine
	r       *Resource
	hold    time.Duration
	holding bool
	log     func(firing)
}

func (j *stagedJob) Granted(now, wait time.Duration) {
	j.log(firing{j.id, "staged granted", now, wait})
	j.holding = true
	j.e.Schedule(now+j.hold, j)
}

func (j *stagedJob) Fire(now time.Duration) {
	if !j.holding {
		j.log(firing{j.id, "staged queued", now, 0})
		j.r.Request(j)
		return
	}
	j.r.Release()
	j.log(firing{j.id, "staged done", now, 0})
}

// mergeScenario drives a randomised workload through feed. Gaps, holds
// and delays are all a few nanoseconds, so same-instant bursts, holds of
// zero and arrivals that coincide to the nanosecond with in-flight
// completions are the common case, not the corner. Durations are drawn
// from one shared RNG as events fire, so any difference in firing order
// also derails every later draw.
func mergeScenario(seed int64, feed func(*Engine, []time.Duration, func(int, time.Duration))) ([]firing, uint64, []Stats) {
	rng := rand.New(rand.NewSource(seed))
	e := New()
	res := []*Resource{NewResource(e, "a", 1), NewResource(e, "b", 2), NewResource(e, "c", 3)}
	at := make([]time.Duration, 150+rng.Intn(150))
	var clock time.Duration
	for i := range at {
		if rng.Intn(3) != 0 { // one arrival in three shares the previous instant
			clock += time.Duration(rng.Intn(4))
		}
		at[i] = clock
	}
	var fired []firing
	log := func(f firing) { fired = append(fired, f) }
	arrive := func(i int, now time.Duration) {
		log(firing{i, "arrive", now, 0})
		r1, r2 := res[rng.Intn(3)], res[rng.Intn(3)]
		hold, delay := time.Duration(rng.Intn(4)), time.Duration(rng.Intn(3))
		if rng.Intn(4) == 0 {
			e.Schedule(e.Now()+delay, Event((&stagedJob{id: i, e: e, r: r1, hold: hold, log: log}).Fire))
			return
		}
		r1.Use(hold, func(now, wait time.Duration) {
			log(firing{i, "first done", now, wait})
			e.Schedule(e.Now()+delay, Event(func(now time.Duration) {
				log(firing{i, "timer", now, 0})
				r2.Request(Grant(func(now, wait time.Duration) {
					log(firing{i, "second granted", now, wait})
					e.Schedule(now+time.Duration(rng.Intn(3)), Event(func(now time.Duration) {
						r2.Release()
						log(firing{i, "done", now, 0})
					}))
				}))
			}))
		})
	}
	feed(e, at, arrive)
	stats := make([]Stats, len(res))
	for i, r := range res {
		stats[i] = r.Stats()
	}
	return fired, e.Steps(), stats
}

// TestArriveMatchesUpFrontScheduling pins the order argument behind
// Arrive: merging sorted arrivals into the run reproduces, event for
// event, what scheduling them all before the first Run produced.
func TestArriveMatchesUpFrontScheduling(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		wantFired, wantSteps, wantStats := mergeScenario(seed, feedUpFront)
		gotFired, gotSteps, gotStats := mergeScenario(seed, feedMerged)
		if len(wantFired) < 500 {
			t.Fatalf("seed %d: only %d events fired; scenario too small", seed, len(wantFired))
		}
		for i := 0; i < min(len(gotFired), len(wantFired)); i++ {
			if gotFired[i] != wantFired[i] {
				t.Fatalf("seed %d: event %d differs: merged %+v, up-front %+v", seed, i, gotFired[i], wantFired[i])
			}
		}
		if len(gotFired) != len(wantFired) {
			t.Fatalf("seed %d: merged fired %d events, up-front %d", seed, len(gotFired), len(wantFired))
		}
		if gotSteps != wantSteps {
			t.Errorf("seed %d: Steps = %d, up-front %d", seed, gotSteps, wantSteps)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("seed %d: resource stats differ:\n merged   %+v\n up-front %+v", seed, gotStats, wantStats)
		}
	}
}

func TestArriveOrdersAgainstPendingEvents(t *testing.T) {
	e := New()
	var order []string
	note := func(s string) Event { return func(time.Duration) { order = append(order, s) } }
	e.Schedule(1*time.Second, note("pending@1"))
	e.Schedule(2*time.Second, note("pending@2"))
	e.Schedule(3*time.Second, note("pending@3"))
	e.Arrive(2*time.Second, note("arrival@2"))
	if e.Now() != 2*time.Second || len(e.events) != 2 || e.Steps() != 2 {
		t.Fatalf("after Arrive: now %v, pending %d, steps %d", e.Now(), len(e.events), e.Steps())
	}
	e.Arrive(2*time.Second, note("second arrival@2"))
	e.Run()
	want := []string{"pending@1", "arrival@2", "second arrival@2", "pending@2", "pending@3"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestArriveIntoThePastPanics(t *testing.T) {
	e := New()
	e.Arrive(5*time.Second, Event(func(time.Duration) {}))
	defer func() {
		if recover() == nil {
			t.Error("an arrival earlier than the clock should panic")
		}
	}()
	e.Arrive(time.Second, Event(func(time.Duration) {}))
}

// TestResourceQueueKeepsFIFOAcrossWrapAndGrowth holds one server while
// the wait queue fills, drains part-way, wraps around its ring and
// grows, and checks grants still come in arrival order.
func TestResourceQueueKeepsFIFOAcrossWrapAndGrowth(t *testing.T) {
	e := New()
	r := NewResource(e, "one", 1)
	r.Request(Grant(func(time.Duration, time.Duration) {}))
	var granted []int
	next := 0
	enqueue := func(n int) {
		for ; n > 0; n-- {
			id := next
			next++
			r.Request(Grant(func(time.Duration, time.Duration) { granted = append(granted, id) }))
		}
	}
	release := func(n int) {
		for ; n > 0; n-- {
			r.Release()
		}
	}
	enqueue(3)
	release(2)
	enqueue(3) // wraps the four-slot ring
	release(1)
	enqueue(9) // grows it with the head mid-ring
	if r.waiting.n != 12 {
		t.Fatalf("QueueLength = %d, want 12", r.waiting.n)
	}
	release(12)
	if len(granted) != next {
		t.Fatalf("granted %d of %d", len(granted), next)
	}
	for i, id := range granted {
		if id != i {
			t.Fatalf("grants out of arrival order: %v", granted)
		}
	}
	if got := r.Stats().MaxQueue; got != 12 {
		t.Errorf("MaxQueue = %d, want 12", got)
	}
}
