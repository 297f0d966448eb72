package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestResourceImmediateGrant(t *testing.T) {
	e := New()
	r := NewResource(e, "disk", 2)
	granted := 0
	r.Request(Grant(func(now, wait time.Duration) {
		granted++
		if wait != 0 {
			t.Errorf("wait = %v, want 0", wait)
		}
	}))
	r.Request(Grant(func(now, wait time.Duration) { granted++ }))
	if granted != 2 {
		t.Fatalf("granted = %d, want 2 (both servers free)", granted)
	}
	if r.busy != 2 {
		t.Errorf("Busy = %d, want 2", r.busy)
	}
}

func TestResourceQueueing(t *testing.T) {
	e := New()
	r := NewResource(e, "drive", 1)
	var waits []time.Duration
	// Three requests arrive at t=0, each holding for 10s.
	for i := 0; i < 3; i++ {
		r.Use(10*time.Second, func(now, wait time.Duration) {
			waits = append(waits, wait)
		})
	}
	e.Run()
	if len(waits) != 3 {
		t.Fatalf("completions = %d, want 3", len(waits))
	}
	want := []time.Duration{0, 10 * time.Second, 20 * time.Second}
	for i, w := range waits {
		if w != want[i] {
			t.Errorf("wait[%d] = %v, want %v", i, w, want[i])
		}
	}
	if e.Now() != 30*time.Second {
		t.Errorf("final time = %v, want 30s", e.Now())
	}
}

func TestResourceMultiServer(t *testing.T) {
	e := New()
	r := NewResource(e, "drives", 2)
	done := 0
	for i := 0; i < 4; i++ {
		r.Use(10*time.Second, func(now, wait time.Duration) { done++ })
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// 4 jobs, 2 servers, 10s each -> makespan 20s.
	if e.Now() != 20*time.Second {
		t.Errorf("makespan = %v, want 20s", e.Now())
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := New()
	r := NewResource(e, "op", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Second, Event(func(time.Duration) {
			r.Use(100*time.Second, func(now, wait time.Duration) {
				order = append(order, i)
			})
		}))
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	e := New()
	r := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release on idle resource should panic")
		}
	}()
	r.Release()
}

func TestNewResourcePanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero servers should panic")
		}
	}()
	NewResource(New(), "x", 0)
}

func TestResourceStats(t *testing.T) {
	e := New()
	r := NewResource(e, "drive", 1)
	for i := 0; i < 3; i++ {
		r.Use(10*time.Second, nil)
	}
	e.Run()
	st := r.Stats()
	if st.Arrivals != 3 {
		t.Errorf("Arrivals = %d, want 3", st.Arrivals)
	}
	if st.MeanWait != 10*time.Second {
		t.Errorf("MeanWait = %v, want 10s (waits 0,10,20)", st.MeanWait)
	}
	if st.MaxWait != 20*time.Second {
		t.Errorf("MaxWait = %v, want 20s", st.MaxWait)
	}
	if st.MaxQueue != 2 {
		t.Errorf("MaxQueue = %d, want 2", st.MaxQueue)
	}
	if st.Utilization < 0.99 || st.Utilization > 1.01 {
		t.Errorf("Utilization = %v, want ~1.0 (always busy)", st.Utilization)
	}
	if st.Name != "drive" || r.Name() != "drive" {
		t.Errorf("Name = %q", st.Name)
	}
	if r.servers != 1 {
		t.Errorf("Servers = %d", r.servers)
	}
}

func TestResourceUtilizationPartial(t *testing.T) {
	e := New()
	r := NewResource(e, "drive", 1)
	r.Use(10*time.Second, nil)
	e.Schedule(20*time.Second, Event(func(time.Duration) {})) // idle for the second half
	e.Run()
	st := r.Stats()
	if st.Utilization < 0.45 || st.Utilization > 0.55 {
		t.Errorf("Utilization = %v, want ~0.5", st.Utilization)
	}
}

// TestResourceConservation checks an M/M/k-ish random workload: every
// acquire is granted exactly once and queue drains completely.
func TestResourceConservation(t *testing.T) {
	e := New()
	r := NewResource(e, "pool", 3)
	rng := rand.New(rand.NewSource(99))
	const n = 500
	granted := 0
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Intn(100000)) * time.Millisecond
		hold := time.Duration(rng.Intn(5000)) * time.Millisecond
		e.Schedule(at, Event(func(time.Duration) {
			r.Use(hold, func(now, wait time.Duration) { granted++ })
		}))
	}
	e.Run()
	if granted != n {
		t.Errorf("granted = %d, want %d", granted, n)
	}
	if r.busy != 0 || r.waiting.n != 0 {
		t.Errorf("resource not drained: busy=%d queue=%d", r.busy, r.waiting.n)
	}
	if got := r.Stats().Arrivals; got != n {
		t.Errorf("Arrivals = %d, want %d", got, n)
	}
}
