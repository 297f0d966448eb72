package main

import (
	"context"
	"testing"
	"time"
)

// fakeClock is a clock that only moves when slept on or advanced.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(_ context.Context, d time.Duration) error {
	c.now = c.now.Add(d)
	return nil
}

// TestOpenLoopTimesFromDueTime drives the scheduler at 100/s (a request
// due every 10 ms) with service times that stall it once: latency must
// be measured from each request's due time, so the stall is charged to
// the requests queued behind it, and the generator's lateness reported.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	service := []time.Duration{2 * time.Millisecond, 25 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	stop := make(chan struct{})
	st := openLoop(context.Background(), clk, 100, stop, func(k int) {
		clk.now = clk.now.Add(service[k])
		if k == len(service)-1 {
			close(stop)
		}
	})
	// due: 0 10 20 30 40 ms. Request 1 is sent at 10 and returns at 35,
	// so request 2 (due 20) is sent 15 late and request 3 (due 30) 7 late.
	wantLate := []float64{0, 0, 15, 7, 0}
	wantLat := []float64{2, 25, 17, 9, 2}
	if len(st.latency) != len(service) {
		t.Fatalf("%d requests issued, want %d", len(st.latency), len(service))
	}
	for k := range service {
		if st.late[k] != wantLate[k] || st.latency[k] != wantLat[k] {
			t.Errorf("request %d: late %v ms latency %v ms, want %v and %v",
				k, st.late[k], st.latency[k], wantLate[k], wantLat[k])
		}
	}
}

// TestOpenLoopStops checks both exits: the stop channel and the context.
func TestOpenLoopStops(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	if st := openLoop(context.Background(), &fakeClock{}, 100, stop, func(int) { t.Error("issued after stop") }); len(st.latency) != 0 {
		t.Errorf("latencies after stop: %v", st.latency)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	openLoop(ctx, &fakeClock{}, 100, make(chan struct{}), func(int) { t.Error("issued after cancel") })
}
