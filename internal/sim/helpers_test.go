package sim

import "time"

// Event is the func form of Handler, for tests that schedule closures.
type Event func(now time.Duration)

// Fire calls the callback.
func (fn Event) Fire(now time.Duration) { fn(now) }

// Grant is the func form of Waiter.
type Grant func(now time.Duration, wait time.Duration)

// Granted calls the callback.
func (g Grant) Granted(now time.Duration, wait time.Duration) { g(now, wait) }

// Use is the acquire→hold→release pattern the tests drive resources
// with: wait for a server, hold it for hold, then release and invoke done
// (if non-nil) with the completion time and the queueing delay.
func (r *Resource) Use(hold time.Duration, done Grant) {
	r.Request(Grant(func(now time.Duration, wait time.Duration) {
		r.engine.Schedule(now+hold, Event(func(end time.Duration) {
			r.Release()
			if done != nil {
				done(end, wait)
			}
		}))
	}))
}
