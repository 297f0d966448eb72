package main

import (
	"context"
	"time"
)

// clock is the time source the open-loop scheduler runs on; tests
// inject a fake.
type clock interface {
	Now() time.Time
	// Sleep waits for d, returning early with ctx's error.
	Sleep(ctx context.Context, d time.Duration) error
}

// wallClock is the real clock.
type wallClock struct{}

// Now reads the wall clock.
func (wallClock) Now() time.Time { return time.Now() }

// Sleep waits on the wall clock.
func (wallClock) Sleep(ctx context.Context, d time.Duration) error { return sleepCtx(ctx, d) }

// openLoopStats is what one open-loop run measured, in milliseconds.
type openLoopStats struct {
	// latency is each request's completion time minus its due time, so
	// a stall is charged to every request that queued behind it.
	latency []float64
	// late is how far behind its due time each request was sent: the
	// generator's own lateness.
	late []float64
}

// openLoop issues requests on a fixed schedule — request k is due at
// start + k/rate — until stop is closed or ctx ends. Independent users do
// not wait for each other's answers, so the schedule never slows down
// for a slow system; a request that cannot be sent on time is sent as
// soon as the previous one returns and is still timed from when it was
// due.
func openLoop(ctx context.Context, clk clock, rate int, stop <-chan struct{}, issue func(k int)) openLoopStats {
	var st openLoopStats
	interval := time.Second / time.Duration(rate)
	start := clk.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			if clk.Sleep(ctx, wait) != nil {
				return st
			}
		}
		select {
		case <-stop:
			return st
		case <-ctx.Done():
			return st
		default:
		}
		sent := clk.Now()
		issue(k)
		st.late = append(st.late, ms(sent.Sub(due)))
		st.latency = append(st.latency, ms(clk.Now().Sub(due)))
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
