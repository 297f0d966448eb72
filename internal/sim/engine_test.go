package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3*time.Second, Event(func(time.Duration) { order = append(order, 3) }))
	e.Schedule(1*time.Second, Event(func(time.Duration) { order = append(order, 1) }))
	e.Schedule(2*time.Second, Event(func(time.Duration) { order = append(order, 2) }))
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	if e.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", e.Steps())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, Event(func(time.Duration) { order = append(order, i) }))
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []time.Duration
	e.Schedule(time.Second, Event(func(now time.Duration) {
		hits = append(hits, now)
		e.Schedule(e.Now()+2*time.Second, Event(func(now time.Duration) {
			hits = append(hits, now)
		}))
	}))
	e.Run()
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 3*time.Second {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.Schedule(5*time.Second, Event(func(now time.Duration) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		e.Schedule(time.Second, Event(func(time.Duration) {}))
	}))
	e.Run()
}

func TestEngineEventTimesNondecreasing(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		e := New()
		var fired []time.Duration
		for _, d := range delaysMs {
			e.Schedule(time.Duration(d)*time.Millisecond, Event(func(now time.Duration) {
				fired = append(fired, now)
			}))
		}
		e.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEngineRandomisedStress(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := New()
	fired := 0
	var schedule func(depth int) Event
	schedule = func(depth int) Event {
		return func(now time.Duration) {
			fired++
			if depth < 3 {
				n := r.Intn(3)
				for i := 0; i < n; i++ {
					e.Schedule(e.Now()+time.Duration(r.Intn(1000))*time.Millisecond, Event(schedule(depth+1)))
				}
			}
		}
	}
	for i := 0; i < 100; i++ {
		e.Schedule(time.Duration(r.Intn(10000))*time.Millisecond, Event(schedule(0)))
	}
	e.Run()
	if fired < 100 {
		t.Errorf("fired = %d, want >= 100", fired)
	}
	if len(e.events) != 0 {
		t.Errorf("Pending = %d after Run", len(e.events))
	}
}
