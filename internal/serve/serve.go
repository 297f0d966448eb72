// Package serve implements migd, the live ingest daemon over the
// unified online accumulator in internal/core. What the daemon keeps is
// the journal, not an analysis: one journal-only core.Partial segment
// per contiguous run of ingested records — start instant, counts, the
// op×class sums, the Figure 3 latency CDFs and one journal entry per
// good reference, exactly what an s1 snapshot serializes — striped
// across time shards for lock locality, all over one daemon-wide path
// table (a trace.Interner) whose dense FileIDs the journals carry and
// the live per-file rows are indexed by. Every answer derives from
// that:
//
//   - POST /v1/ingest and /v1/ingest/batch decode a trace-stream body
//     (the batch variant wrapped in the internal/dist CRC frame)
//     straight out of the pooled request buffer, validate it fully, and
//     only then intern its new paths and observe it into segment state;
//   - GET /v1/report merges every segment's journal back into global
//     time order inside a fresh accumulator (Analysis.FoldPartials)
//     and renders the full op×class report — byte-identical to the
//     offline slice path over the same records;
//   - GET /v1/file/{path} answers migrate/keep/prefetch for one file
//     from its per-file row — one table probe, one slice index — and
//     the STP rank of internal/migration;
//   - POST /v1/checkpoint (and the record-count cadence in
//     Config.CheckpointEvery) serializes each segment with the s1
//     snapshot codec inside a dist frame, one entry file per time stripe
//     in the checkpoint directory, written only for the stripes that
//     ingested since the last checkpoint, fsynced, and committed by a
//     generation record written last. A restarted daemon reads the
//     frames one at a time straight back into segments — nothing is
//     replayed — so it resumes exactly.
//
// Daemon-wide FileIDs are process-local: they are never serialized or
// rendered (a checkpoint frame carries its segment's own first-seen
// path table, derived at encode time), so two daemons holding the same
// records agree on every output byte however differently they numbered
// the files.
//
// The package is policed by miglint's determinism analyzers: it never
// reads the wall clock (the clock is injected via Config.Now — cmd/migd
// passes internal/host's) and never ranges a map in an order that could
// reach its outputs.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"filemig/internal/core"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// DefaultShardDuration is the time width of one ingest shard when
// Config.ShardDuration is zero: wide enough that a steady trace touches
// one lock stripe at a time, narrow enough that backfill and live
// traffic do not contend.
const DefaultShardDuration = 7 * 24 * time.Hour

// DefaultMigrateAfter is the idle age at which /v1/file recommends
// migration when Config.MigrateAfter is zero — a week, the knee of the
// paper's Figure 8 interreference distribution.
const DefaultMigrateAfter = 7 * 24 * time.Hour

// defaultSTPK is the space-time-product exponent the paper's cache
// study favors, used when Config.STPK is zero.
const defaultSTPK = 1.4

// Config parameterizes a Server.
type Config struct {
	// Opts configures every segment accumulator and the report master.
	// Tree must be nil: a live daemon has no full-namespace snapshot.
	// Journal is forced on for segments regardless of its value here.
	Opts core.Options

	// ShardDuration is the time width of one ingest shard (a lock
	// stripe over segments). Zero means DefaultShardDuration.
	ShardDuration time.Duration

	// CheckpointPath is the directory Checkpoint writes the daemon's
	// state to. Empty disables checkpointing.
	CheckpointPath string

	// CheckpointEvery triggers a checkpoint after that many ingested
	// records since the last one. Zero disables the cadence; explicit
	// POST /v1/checkpoint still works. Wall-clock cadence is the
	// caller's job (cmd/migd runs a ticker), keeping this package free
	// of timers.
	CheckpointEvery int64

	// Now supplies the wall clock for /v1/file verdicts; required.
	// cmd/migd injects internal/host's clock, tests a fixed one. A
	// request may override it with an explicit ?now= instant.
	Now func() time.Time

	// STPK is the exponent of the STP rank reported by /v1/file.
	// Zero means 1.4.
	STPK float64

	// MigrateAfter is the idle age at which /v1/file says "migrate".
	// Zero means DefaultMigrateAfter.
	MigrateAfter time.Duration

	// Logf, when set, receives operational messages (background
	// checkpoint failures). Nil discards them.
	Logf func(format string, args ...any)
}

// segment is one live journal-only Partial.
type segment struct {
	p   *core.Partial
	seq int64 // creation order, tie-break for equal first instants
}

// shard is one time stripe of segments. Its mutex serializes appends by
// concurrent ingests that land in the same stripe. lastSeg is the
// segment holding the stripe's latest record (maxLast): a run may only
// extend that segment, from maxLast on, and otherwise opens a fresh one.
// FoldPartials would accept an earlier segment extended past records of
// later ones — it merges interleaved segments — but it replays records
// at one instant across segments in segment order (first instant, then
// creation order), so the run would replay ahead of equal-instant
// records that later-ordered segments received before it. records
// counts the stripe's records; entry is its current checkpoint entry
// file and saved its record count when that entry was cut, so the
// stripe is written again only once it ingests.
type shard struct {
	mu      sync.Mutex
	segs    []*segment
	lastSeg *segment
	maxLast time.Time
	records int64

	entry string // guarded by Server.ckptMu, as is saved
	saved int64
}

// noteBounds updates the stripe's latest-record bookkeeping after sg
// observed records. The caller holds the stripe mutex.
func (sh *shard) noteBounds(sg *segment) {
	_, last := sg.p.Bounds()
	if sh.lastSeg == nil || last.After(sh.maxLast) {
		sh.lastSeg = sg
		sh.maxLast = last
	}
}

// fileRow is one file's live row behind /v1/file, indexed by the file's
// daemon-wide FileID. Instants are UnixNano, which keeps the row table
// free of pointers.
type fileRow struct {
	size        units.Bytes
	reads       int64
	writes      int64
	first, last int64
}

// observe applies one good reference to the row.
func (f *fileRow) observe(op trace.Op, start int64, size units.Bytes) {
	if f.reads+f.writes == 0 {
		f.first, f.last = start, start
	}
	if start < f.first {
		f.first = start
	}
	if start >= f.last {
		f.last = start
		f.size = size
	}
	if op == trace.Write {
		f.writes++
	} else {
		f.reads++
	}
}

// Server is the migd daemon state and its http.Handler. The zero value
// is not usable; construct with NewServer.
type Server struct {
	cfg          Config
	shardDur     time.Duration
	stpK         float64
	migrateAfter time.Duration
	mux          *http.ServeMux

	// mu is the big ingest/fold lock: ingest holds it shared (many
	// batches in flight, each serialized per shard below), report and
	// checkpoint hold it exclusive so they see every segment — and the
	// path table, which only grows under mu held shared — quiescent.
	mu       sync.RWMutex
	shardsMu sync.Mutex
	shards   map[int64]*shard

	// paths is the daemon-wide path table, and its lock also guards the
	// per-file rows its FileIDs index; it nests inside mu. Ingest
	// extends both under the write lock, once per validated batch;
	// decode-time lookups and /v1/file take the read lock.
	paths *trace.SharedTable
	files []fileRow

	// ckptMu serialises checkpoints: the stripe entries, the generation
	// record, the prune and the sinceCkpt settlement are one step. It is
	// taken before mu, never while holding it, and guards each stripe's
	// entry.
	ckptMu sync.Mutex

	records     atomic.Int64
	errRecords  atomic.Int64
	segCount    atomic.Int64
	segSeq      atomic.Int64
	sinceCkpt   atomic.Int64
	checkpoints atomic.Int64
}

// NewServer builds a Server from cfg. It validates that the clock is
// injected and that the analysis options fit a live daemon.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Now == nil {
		return nil, errors.New("serve: Config.Now is required (inject internal/host's clock)")
	}
	if cfg.Opts.Tree != nil {
		return nil, errors.New("serve: a live daemon cannot carry a namespace Tree")
	}
	s := &Server{
		cfg:          cfg,
		shardDur:     cfg.ShardDuration,
		stpK:         cfg.STPK,
		migrateAfter: cfg.MigrateAfter,
		shards:       map[int64]*shard{},
		paths:        trace.NewSharedTable(),
	}
	if s.shardDur <= 0 {
		s.shardDur = DefaultShardDuration
	}
	if s.stpK == 0 {
		s.stpK = defaultSTPK
	}
	if s.migrateAfter <= 0 {
		s.migrateAfter = DefaultMigrateAfter
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/ingest/batch", s.handleIngestBatch)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/file/", s.handleFile)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// shardKey maps a record instant to its shard stripe: floor division of
// the Unix epoch offset by the shard duration.
func (s *Server) shardKey(t time.Time) int64 {
	d := int64(s.shardDur)
	n := t.UnixNano()
	k := n / d
	if n < 0 && n%d != 0 {
		k--
	}
	return k
}

// getShard returns the stripe for key k, creating it on first use.
func (s *Server) getShard(k int64) *shard {
	s.shardsMu.Lock()
	defer s.shardsMu.Unlock()
	sh := s.shards[k]
	if sh == nil {
		sh = &shard{}
		s.shards[k] = sh
	}
	return sh
}

// stripeKeys returns every stripe's key in ascending order. The caller
// must hold mu exclusively.
func (s *Server) stripeKeys() []int64 {
	s.shardsMu.Lock()
	keys := make([]int64, 0, len(s.shards))
	for k := range s.shards {
		keys = append(keys, k)
	}
	s.shardsMu.Unlock()
	slices.Sort(keys)
	return keys
}

// sortSegments sorts the stripe's segments into trace order — by first
// observed instant, creation order breaking exact ties — and returns
// them. The caller must hold mu exclusively.
func (sh *shard) sortSegments() []*segment {
	slices.SortFunc(sh.segs, func(a, b *segment) int {
		fa, _ := a.p.Bounds()
		fb, _ := b.p.Bounds()
		if c := fa.Compare(fb); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return sh.segs
}

// orderedSegments returns every segment in trace order: the stripes in
// key order, each one's segments sorted — a segment's first instant
// lies in its own stripe. The caller must hold mu exclusively.
func (s *Server) orderedSegments() []*segment {
	var segs []*segment
	for _, k := range s.stripeKeys() {
		segs = append(segs, s.shards[k].sortSegments()...)
	}
	return segs
}

// Accumulate folds every segment, in trace order, into a fresh master
// accumulator — the exact state the offline slice path would hold after
// analyzing the concatenated records.
func (s *Server) Accumulate() (*core.Analysis, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accumulateLocked()
}

// accumulateLocked is Accumulate with mu already held exclusively.
func (s *Server) accumulateLocked() (*core.Analysis, error) {
	opts := s.cfg.Opts
	opts.Journal = false
	m := core.New(opts)
	segs := s.orderedSegments()
	ps := make([]*core.Partial, len(segs))
	for i, sg := range segs {
		ps[i] = sg.p
	}
	if err := m.FoldPartials(ps); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return m, nil
}

// Report renders the full op×class report over everything ingested so
// far — the same bytes the offline pipeline renders for the same
// records.
func (s *Server) Report() (string, error) {
	m, err := s.Accumulate()
	if err != nil {
		return "", err
	}
	return core.RenderReport(m.Report()), nil
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
