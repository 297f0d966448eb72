// Package host isolates the process's view of the machine it runs on.
// The deterministic packages never read host state — miglint's
// detsource analyzer rejects runtime.GOMAXPROCS, runtime.NumCPU, clock
// and environment reads there — so worker counts arrive in those
// packages as explicit parameters. Every host-CPU read in the
// repository funnels through this package instead, used only by the
// boundary layers (cmd/* and the filemig facade) that own execution
// policy rather than results.
package host

import (
	"runtime"
	"time"
)

// DefaultWorkers returns the default worker-pool size for sweep and
// streaming-analysis fan-out: one worker per available CPU. Output
// never depends on the worker count — only wall-clock time does.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Now is the boundary layers' wall-clock read. The deterministic
// packages never call it; internal/dist takes a clock as an explicit
// option, and cmd/* resolve that option here — so lease deadlines and
// retry timers are host concerns, never result concerns.
func Now() time.Time { return time.Now() }

// Seed derives a process-unique RNG seed for execution-side jitter
// (retry backoff, a worker's name). Jitter shapes wall-clock behavior
// only, never results, so a wall-clock-derived seed is safe —
// and it keeps a restarted coordinator from replaying the exact retry
// schedule that just lost a race.
func Seed() int64 { return time.Now().UnixNano() }
