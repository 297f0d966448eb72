// Package pool is the repo's one worker pool. Every parallel path here
// has the same shape — run independent jobs, combine the results in job
// order, report the lowest-indexed failure, stop on cancel — and Run is
// that shape, written once: the sweep runner, the stream and b2 shard
// analyses, and the parallel b2 block stream are all calls to it.
package pool

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
)

// Run pulls jobs from next on the calling goroutine until it returns
// io.EOF, runs each on one of at most workers goroutines, and hands
// the results to deliver in job order on one further goroutine — so a
// slow deliver never stalls the producer. Each worker goroutine calls
// newWorker once and runs all its jobs through the function it gets
// back, which is where per-worker state (a decoder, a scratch buffer)
// lives. Goroutines start only as jobs need them, so workers is an
// upper bound, not a cost.
//
// With a deliver, at most workers+1 jobs sit between pulled and
// delivered: that window is what bounds memory when results are large.
// A nil deliver means results are dropped (the jobs write their own
// output by index) and there is no window, because releasing one in
// job order would park every worker behind the slowest early job.
//
// The error returned is the lowest-indexed failure — of next (an error
// other than io.EOF), of a job, or of deliver — at any worker count.
// Nothing at or past that index is delivered, and nothing further is
// pulled once any failure is seen; jobs already pulled still run.
// Cancelling ctx stops pulling; jobs already pulled finish and deliver,
// and Run returns ctx.Err() unless one of them failed.
//
// workers <= 1 does all of it inline on the calling goroutine: pull,
// run, deliver, repeat, with no goroutine and no channel.
func Run[J, R any](ctx context.Context, workers int, next func() (J, error),
	newWorker func() func(J) (R, error), deliver func(R) error) error {
	if workers <= 1 {
		return runInline(ctx, next, newWorker(), deliver)
	}
	type job struct {
		idx int
		j   J
	}
	type result struct {
		idx int
		r   R
		err error
	}
	jobs := make(chan job)
	results := make(chan result)
	var window chan struct{}
	if deliver != nil {
		window = make(chan struct{}, workers+1)
	}
	// failed is set before the failing result is released to the window,
	// so the producer, which checks it after taking a window slot, never
	// pulls on a slot freed at or past the failure.
	var failed atomic.Bool

	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		work := newWorker()
		for jb := range jobs {
			r, err := work(jb.j)
			if err != nil {
				failed.Store(true)
			}
			results <- result{jb.idx, r, err}
		}
	}

	// Merger: take results in job order, holding early arrivals in
	// pending (looked up by index, never ranged).
	var firstErr error
	merged := make(chan struct{})
	go func() {
		defer close(merged)
		pending := map[int]result{}
		at := 0
		for res := range results {
			pending[res.idx] = res
			for res, ok := pending[at]; ok; res, ok = pending[at] {
				delete(pending, at)
				at++
				if firstErr == nil {
					if firstErr = res.err; firstErr == nil && deliver != nil {
						firstErr = deliver(res.r)
					}
					if firstErr != nil {
						failed.Store(true)
					}
				}
				if window != nil {
					<-window
				}
			}
		}
	}()

	var pullErr error
	for idx, started := 0, 0; ; idx++ {
		if window != nil {
			window <- struct{}{}
		}
		if failed.Load() {
			break
		}
		if pullErr = ctx.Err(); pullErr != nil {
			break
		}
		var j J
		if j, pullErr = next(); pullErr != nil {
			break
		}
		select {
		case jobs <- job{idx, j}:
		default:
			if started < workers {
				started++
				wg.Add(1)
				go worker()
			}
			jobs <- job{idx, j}
		}
	}
	close(jobs)
	wg.Wait()
	close(results)
	<-merged
	// Every job pulled has a lower index than the pull that ended the
	// loop, so a job or deliver failure outranks pullErr.
	if firstErr != nil {
		return firstErr
	}
	if pullErr == io.EOF {
		return nil
	}
	return pullErr
}

// runInline is Run on the calling goroutine.
func runInline[J, R any](ctx context.Context, next func() (J, error),
	work func(J) (R, error), deliver func(R) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		j, err := next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		r, err := work(j)
		if err == nil && deliver != nil {
			err = deliver(r)
		}
		if err != nil {
			return err
		}
	}
}

// Indices is the producer for jobs that are just the numbers 0..n-1.
func Indices(n int) func() (int, error) {
	i := 0
	return func() (int, error) {
		if i >= n {
			return 0, io.EOF
		}
		i++
		return i - 1, nil
	}
}
