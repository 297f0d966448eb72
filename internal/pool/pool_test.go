package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

var workerCounts = []int{0, 1, 2, 7, 100}

// stateless adapts a plain job function to Run's per-worker factory.
func stateless(fn func(int) (int, error)) func() func(int) (int, error) {
	return func() func(int) (int, error) { return fn }
}

func TestRunEveryJobOnceInOrder(t *testing.T) {
	const n = 50
	for _, workers := range workerCounts {
		for _, delivering := range []bool{true, false} {
			var ran [n]atomic.Int32
			var started atomic.Int32
			var got []int
			var deliver func(int) error
			if delivering {
				deliver = func(r int) error { got = append(got, r); return nil }
			}
			err := Run(context.Background(), workers, Indices(n),
				func() func(int) (int, error) {
					started.Add(1)
					return func(i int) (int, error) {
						ran[i].Add(1)
						return i * i, nil
					}
				}, deliver)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
				}
			}
			if delivering {
				if len(got) != n {
					t.Fatalf("workers=%d: %d results delivered, want %d", workers, len(got), n)
				}
				for i, r := range got {
					if r != i*i {
						t.Fatalf("workers=%d: delivery %d is %d, want %d", workers, i, r, i*i)
					}
				}
			}
			if s := int(started.Load()); s < 1 || s > max(1, min(workers, n)) {
				t.Errorf("workers=%d: %d workers started for %d jobs", workers, s, n)
			}
		}
	}
}

func TestRunLowestIndexedErrorWins(t *testing.T) {
	const n = 10
	errLow, errHigh := errors.New("low"), errors.New("high")
	cases := []struct {
		name                   string
		pullErr, jobErr, dlErr map[int]error
		want                   error
		delivered              int // deliveries that succeed: exactly 0..delivered-1
	}{
		{name: "job<job", jobErr: map[int]error{3: errLow, 7: errHigh}, want: errLow, delivered: 3},
		{name: "job<producer", jobErr: map[int]error{3: errLow}, pullErr: map[int]error{5: errHigh}, want: errLow, delivered: 3},
		{name: "producer<job", pullErr: map[int]error{5: errLow}, jobErr: map[int]error{7: errHigh}, want: errLow, delivered: 5},
		{name: "deliver<job", dlErr: map[int]error{4: errLow}, jobErr: map[int]error{7: errHigh}, want: errLow, delivered: 4},
		{name: "job<deliver", jobErr: map[int]error{3: errLow}, dlErr: map[int]error{6: errHigh}, want: errLow, delivered: 3},
	}
	for _, tc := range cases {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				// With room in the window for both failing jobs, hold the low
				// one back until the high one has failed, so the later index
				// demonstrably reports first.
				highRan := make(chan struct{})
				gate := workers >= 7 && len(tc.jobErr) == 2
				indices := Indices(n)
				var got []int
				err := Run(context.Background(), workers,
					func() (int, error) {
						i, err := indices()
						if err == nil {
							err = tc.pullErr[i]
						}
						return i, err
					},
					stateless(func(i int) (int, error) {
						if gate && tc.jobErr[i] == errLow {
							<-highRan
						}
						if gate && tc.jobErr[i] == errHigh {
							close(highRan)
						}
						return i, tc.jobErr[i]
					}),
					func(i int) error {
						if err := tc.dlErr[i]; err != nil {
							return err
						}
						got = append(got, i)
						return nil
					})
				if err != tc.want {
					t.Errorf("err = %v, want %v", err, tc.want)
				}
				if len(got) != tc.delivered {
					t.Fatalf("delivered %v, want exactly 0..%d", got, tc.delivered-1)
				}
				for i, r := range got {
					if r != i {
						t.Fatalf("delivered %v, want exactly 0..%d", got, tc.delivered-1)
					}
				}
			})
		}
	}
}

// The sweep runner's shape: nothing delivered, jobs report by error only.
func TestRunLowestIndexedErrorWinsWithoutDeliver(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range workerCounts {
		bRan := make(chan struct{})
		err := Run(context.Background(), workers, Indices(10),
			stateless(func(i int) (int, error) {
				switch {
				case i == 3 && workers >= 7:
					<-bRan // the later index reports first
					return 0, errA
				case i == 3:
					return 0, errA
				case i == 7:
					close(bRan)
					return 0, errB
				}
				return 0, nil
			}), nil)
		if err != errA {
			t.Errorf("workers=%d: err = %v, want job 3's error", workers, err)
		}
	}
}

func TestRunCancel(t *testing.T) {
	const n = 1000
	errJob := errors.New("job failed")
	for _, workers := range workerCounts {
		for _, want := range []error{context.Canceled, errJob} {
			ctx, cancel := context.WithCancel(context.Background())
			indices := Indices(n)
			pulled, delivered := 0, 0
			err := Run(ctx, workers,
				func() (int, error) {
					i, err := indices()
					if err == nil {
						pulled++
					}
					return i, err
				},
				stateless(func(i int) (int, error) {
					if i == 5 {
						cancel()
						if want == errJob {
							return i, errJob
						}
					}
					return i, nil
				}),
				func(i int) error {
					if i != delivered {
						t.Errorf("workers=%d: delivery %d is job %d", workers, delivered, i)
					}
					delivered++
					return nil
				})
			cancel()
			if err != want {
				t.Errorf("workers=%d: err = %v, want %v", workers, err, want)
			}
			// Job 5 is undelivered while it cancels, so the window admits
			// at most jobs 5..5+workers before the producer sees ctx.
			if pulled > 6+workers {
				t.Errorf("workers=%d: pulled %d jobs after a cancel in job 5", workers, pulled)
			}
			if want == context.Canceled && delivered != pulled {
				t.Errorf("workers=%d: pulled %d jobs but delivered %d; in-flight jobs must finish and deliver",
					workers, pulled, delivered)
			}
			if want == errJob && delivered != 5 {
				t.Errorf("workers=%d: delivered %d jobs, want exactly 0..4 before the failure", workers, delivered)
			}
		}
	}
}

func TestRunStopsPullingAfterFailure(t *testing.T) {
	const n = 1000
	errJob := errors.New("job failed")
	for _, workers := range workerCounts {
		indices := Indices(n)
		pulled := 0
		err := Run(context.Background(), workers,
			func() (int, error) { pulled++; return indices() },
			stateless(func(i int) (int, error) {
				if i == 5 {
					return i, errJob
				}
				return i, nil
			}),
			func(int) error { return nil })
		if err != errJob {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errJob)
		}
		// Job 5 is never delivered, so the window admits at most jobs
		// 5..5+workers, and no slot freed after the failure is used.
		if pulled > 6+workers {
			t.Errorf("workers=%d: pulled %d of %d jobs though job 5 failed", workers, pulled, n)
		}
	}
}

func TestRunWindowBoundsUndelivered(t *testing.T) {
	const n = 300
	for _, workers := range workerCounts {
		indices := Indices(n)
		var inFlight, high atomic.Int64
		err := Run(context.Background(), workers,
			func() (int, error) {
				i, err := indices()
				if err == nil {
					if c := inFlight.Add(1); c > high.Load() {
						high.Store(c) // only the producer writes high
					}
				}
				return i, err
			},
			stateless(func(i int) (int, error) { return i, nil }),
			func(int) error {
				runtime.Gosched() // a slow consumer: let the producer run ahead
				inFlight.Add(-1)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if h := high.Load(); h > int64(workers)+1 {
			t.Errorf("workers=%d: %d jobs pulled but undelivered, want <= %d", workers, h, workers+1)
		}
	}
}

// A windowed dispatch released in job order would park the second
// worker behind job 0 here and never reach the last job. With nothing
// to deliver there is nothing to bound, so there must be no window.
func TestRunNoHeadOfLineStallWithoutDeliver(t *testing.T) {
	const n = 20
	lastRan := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Run(context.Background(), 2, Indices(n),
			stateless(func(i int) (int, error) {
				switch i {
				case 0:
					<-lastRan
				case n - 1:
					close(lastRan)
				}
				return 0, nil
			}), nil)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job 0 waiting on the last job stalled the pool: dispatch is windowed without a deliver")
	}
}

// Inline mode runs every callback on the goroutine that called Run: the
// test function itself must be a frame of each callback's stack.
func TestRunInlineSpawnsNoGoroutine(t *testing.T) {
	const self = "filemig/internal/pool.TestRunInlineSpawnsNoGoroutine"
	for _, workers := range []int{0, 1} {
		check := func(where string) {
			pc := make([]uintptr, 32)
			frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
			for {
				f, more := frames.Next()
				if f.Function == self {
					return
				}
				if !more {
					t.Errorf("workers=%d: %s ran off the calling goroutine", workers, where)
					return
				}
			}
		}
		indices := Indices(5)
		err := Run(context.Background(), workers,
			func() (int, error) { check("next"); return indices() },
			stateless(func(i int) (int, error) { check("job"); return i, nil }),
			func(int) error { check("deliver"); return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
}
