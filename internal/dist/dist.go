// Package dist is the fault-tolerant distributed fan-out layer: a
// coordinator serves a fixed, ordered list of tasks over HTTP, workers
// claim tasks under expiring leases, execute them with the repository's
// deterministic runners, and stream results back; the coordinator
// re-queues tasks from dead workers, retries failures with capped
// exponential backoff, speculatively re-dispatches stragglers (safe
// because every runner is byte-deterministic, so duplicate results are
// identical and the first one wins), and folds results in strict task
// order — turning the byte-identical merge property of experiment
// manifests and s1 snapshots from a test property into a
// fault-tolerance mechanism.
//
// Two task kinds ride on the generic layer: experiment-grid cells
// (KindGrid, driven by `migexp run -distributed` / `migexp worker`) and
// b2 block-group analysis shards (KindB2Shard, driven by `mssanalyze
// -distributed` / `mssanalyze worker`). The wire protocol, the failure
// matrix, and worked examples are documented in docs/distributed.md.
//
// This package is deliberately clock-free: the coordinator's notion of
// "now" and every jitter seed arrive through Options, resolved at the
// command boundary from internal/host — miglint's detsource analyzer
// enforces that no wall-clock read hides in here.
package dist

import (
	"fmt"
	"time"
)

// Task kinds understood by DefaultExec and the bundled coordinators.
const (
	// KindGrid tasks are experiment-grid cells: the plan blob is the
	// normalized spec JSON, each payload a cell reference, each result a
	// framed CellOutcome JSON.
	KindGrid = "expgrid/v1"
	// KindB2Shard tasks are block-group analysis shards of one b2 trace
	// file: the plan blob names the file and the calendar origin, each
	// payload a block range, each result a framed s1 snapshot.
	KindB2Shard = "b2shard/v1"
)

// Options tunes the fault-tolerance machinery on both sides of the
// protocol. The zero value of every field means "use the default"; Now
// is the exception and must be set on coordinators (cmd/* pass
// host.Now — see the package comment).
type Options struct {
	// Lease is how long a claimed task stays assigned before the
	// coordinator assumes the worker died and re-queues it. Default 15 s.
	Lease time.Duration

	// SpeculateAfter is how long a leased task may run before the
	// coordinator hands a duplicate lease to another idle worker —
	// straggler hedging with first-result-wins dedup. Zero means twice
	// the lease; negative disables speculation.
	SpeculateAfter time.Duration

	// MaxAttempts bounds how many times one task may be leased (initial
	// attempt included) before the run fails. Default 6.
	MaxAttempts int

	// BackoffBase and BackoffCap shape the re-queue delay after a
	// failed or expired attempt: the delay doubles each attempt from
	// Base, is capped at Cap, and is jittered into [delay/2, delay).
	// Defaults 100 ms and 5 s.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// Window bounds result buffering: only tasks with ID below
	// (delivered frontier + Window) are claimable, so at most Window
	// results are ever buffered awaiting in-order delivery. Default 64.
	Window int

	// JournalDir, when non-empty, persists every completed task's
	// result so an interrupted coordinator can be restarted with the
	// same directory and finish the run without re-executing done
	// tasks. The directory is created if missing.
	JournalDir string

	// Now supplies the coordinator's clock; required there (workers do
	// not need it). cmd/* pass internal/host.Now.
	Now func() time.Time

	// Seed seeds the jitter RNG (backoff spreading). Execution-side
	// only — results never depend on it.
	Seed int64
}

// withDefaults resolves zero fields to the documented defaults.
func (o Options) withDefaults() Options {
	if o.Lease <= 0 {
		o.Lease = 15 * time.Second
	}
	if o.SpeculateAfter == 0 {
		o.SpeculateAfter = 2 * o.Lease
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 6
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 5 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	return o
}

// planInfo is the coordinator's run description, served framed at
// /v1/plan so every worker can verify it executes the same plan the
// coordinator is merging.
type planInfo struct {
	// Protocol is the coordinator's protocolVersion; a worker refuses a
	// plan that lacks it or names another.
	Protocol string `json:"protocol"`
	// Kind selects the worker-side executor.
	Kind string `json:"kind"`
	// PlanHash identifies the plan; a journal written under one hash
	// refuses to resume under another.
	PlanHash string `json:"planHash"`
	// NumTasks is the fixed task count.
	NumTasks int `json:"numTasks"`
	// Plan is the kind-specific plan blob (base64 in JSON).
	Plan []byte `json:"plan"`
}

// claimMsg is one /v1/claim response, framed: Done, Fatal, a task, or
// none of them — "claim again".
type claimMsg struct {
	// Done reports the run is complete; the worker should say bye and
	// exit.
	Done bool `json:"done,omitempty"`
	// Fatal carries a run-level failure; the worker should exit with it.
	Fatal string `json:"fatal,omitempty"`
	// ID, Lease and Payload describe the claimed task.
	ID      int    `json:"id"`
	Lease   int64  `json:"lease"`
	Payload []byte `json:"payload,omitempty"`
	// Claimed marks a real task grant (ID 0 is a valid task).
	Claimed bool `json:"claimed,omitempty"`
}

// failMsg is one /v1/fail request: a worker reporting that executing a
// task errored, releasing its lease for retry.
type failMsg struct {
	ID    int    `json:"id"`
	Lease int64  `json:"lease"`
	Error string `json:"error"`
}

// protocolVersion guards worker/coordinator pairing; bump on any wire
// change. Workers send it as headerProtocol and check it in the plan.
const protocolVersion = "2"

// headerProtocol carries the worker's protocolVersion; headerWorker its
// name, by which the coordinator knows when every worker has left.
const (
	headerProtocol = "Dist-Protocol"
	headerWorker   = "Dist-Worker"
)

// pathPlan, pathClaim, pathResult, pathFail and pathBye are the
// protocol endpoints.
const (
	pathPlan   = "/v1/plan"
	pathClaim  = "/v1/claim"
	pathResult = "/v1/result"
	pathFail   = "/v1/fail"
	pathBye    = "/v1/bye"
)

// maxRetryDelay caps a worker's backoff between failed exchanges; a
// coordinator waits at least this long for a silent worker before
// presuming it gone, so a worker still backing off when the run
// completes is waited for, not abandoned.
const maxRetryDelay = 2 * time.Second

// errFatal wraps a run-level failure so workers can distinguish "the
// run is broken, exit" from transient transport trouble.
type errFatal struct{ msg string }

func (e errFatal) Error() string { return fmt.Sprintf("dist: coordinator reported fatal: %s", e.msg) }
