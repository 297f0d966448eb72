// Package serve implements migd, the live ingest daemon over the
// unified online accumulator in internal/core. What the daemon keeps is
// the journal, not an analysis: one journal-only core.Partial segment
// per contiguous run of ingested records — start instant, counts, the
// op×class sums, the Figure 3 latency CDFs and one journal entry per
// good reference, exactly what an s1 snapshot serializes — filed by
// time stripe, the unit of a checkpoint entry, all over one daemon-wide
// path table (a trace.SharedTable) whose dense FileIDs the journals
// carry and the live per-file rows are indexed by. Every answer derives
// from that:
//
//   - POST /v1/ingest and /v1/ingest/batch decode a trace-stream body
//     (the batch variant wrapped in the internal/dist CRC frame)
//     straight out of the pooled request buffer, validate it fully, and
//     only then intern its new paths and observe it into segment state;
//   - GET /v1/report captures a version of the state and merges every
//     segment's journal back into global time order inside a fresh
//     accumulator (Analysis.FoldPartials), and renders the full op×class
//     report — byte-identical to the offline slice path over the same
//     records;
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
// The table's lock is the daemon's one state lock: it guards the table,
// the stripes, their segments and the per-file rows. An ingest holds it
// once, exclusively, to intern a batch's new paths, fill their rows and
// observe its records; a decoded batch's lookups, /v1/file and
// /v1/stats hold it shared. A report, a checkpoint and EncodeCheckpoint hold it shared
// only to capture a version — each stripe's segments in trace order,
// read through prefix views of the table — and fold or encode that
// version with no lock held, so ingest never waits for a fold or an
// encode. A capture is cheap because only a stripe's latest segment can
// still grow: it is copied (core.Partial.Capture), the rest shared.
// Checkpoints are serialised by a second mutex of their own.
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

// DefaultShardDuration is the time width of one stripe when
// Config.ShardDuration is zero: wide enough that a steady trace extends
// one stripe's latest segment at a time, narrow enough that a checkpoint
// after steady ingest rewrites one small entry, not the whole state.
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

	// ShardDuration is the time width of one stripe: the segments a
	// checkpoint writes as one entry file. Zero means
	// DefaultShardDuration.
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

// shard is one time stripe of journal-only segments, guarded by the
// state lock, its segments kept in trace order: by first instant, then
// creation order. lastSeg is the segment holding the stripe's latest
// record (maxLast): a run may only extend that segment, from maxLast on,
// and otherwise opens a fresh one, so no other segment ever grows.
// FoldPartials would accept an earlier segment extended past records of
// later ones — it merges interleaved segments — but it replays records
// at one instant across segments in segment order, so the run would
// replay ahead of equal-instant records that later-ordered segments
// received before it. records counts the stripe's records; entry is its
// current checkpoint entry file and saved its record count when that
// entry was cut, so the stripe is written again only once it ingests.
type shard struct {
	key     int64
	segs    []*core.Partial
	lastSeg *core.Partial
	maxLast time.Time
	records int64

	entry string // guarded by Server.ckptMu, as is saved
	saved int64
}

// add files p, a segment that just observed records, in the stripe: a
// created one after every segment that starts no later, which keeps the
// segments in trace order with creation order breaking ties; then it
// updates the latest-record bookkeeping.
func (sh *shard) add(p *core.Partial, created bool) {
	first, last := p.Bounds()
	if created {
		// Never 0, so the search lands past every equal first instant.
		i, _ := slices.BinarySearchFunc(sh.segs, first, func(q *core.Partial, t time.Time) int {
			if f, _ := q.Bounds(); f.After(t) {
				return 1
			}
			return -1
		})
		sh.segs = slices.Insert(sh.segs, i, p)
	}
	if sh.lastSeg == nil || last.After(sh.maxLast) {
		sh.lastSeg, sh.maxLast = p, last
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

	// paths is the daemon-wide path table, and its lock is the state
	// lock (see the package comment): it also guards the per-file rows
	// its FileIDs index and the stripes, in key order.
	paths  *trace.SharedTable
	files  []fileRow
	shards []*shard

	// ckptMu serialises checkpoints: the stripe entries, the generation
	// record, the prune and the sinceCkpt settlement are one step. It is
	// taken before the state lock, never while holding it, and guards
	// each stripe's entry and codecs.
	ckptMu sync.Mutex
	// codecs are the checkpoint encoders' segment codecs, one per
	// worker, kept from checkpoint to checkpoint so that each one's
	// table-sized translation scratch is made once, not per checkpoint.
	codecs [ckptWorkers]*core.SegmentCodec

	records     atomic.Int64
	errRecords  atomic.Int64
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
		paths:        trace.NewSharedTable(),
	}
	for i := range s.codecs {
		s.codecs[i] = core.NewSegmentCodec(s.paths)
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

// getShard returns the stripe for key k, creating it on first use. The
// caller holds the state lock exclusively.
func (s *Server) getShard(k int64) *shard {
	i, ok := slices.BinarySearchFunc(s.shards, k, byKey)
	if !ok {
		s.shards = slices.Insert(s.shards, i, &shard{key: k})
	}
	return s.shards[i]
}

// byKey orders a stripe against key k, for a binary search.
func byKey(sh *shard, k int64) int { return cmp.Compare(sh.key, k) }

// version is the daemon's state as one capture saw it, which nothing
// changes afterwards: every stripe in key order, the path table's
// prefix view that their journals resolve through, and the count of
// records ingested since the last checkpoint.
type version struct {
	stripes []stripeCut
	paths   []string
	pending int64
}

// stripeCut is one stripe of a version: its record count and, when the
// capture wanted them, its segments in trace order.
type stripeCut struct {
	sh      *shard
	records int64
	segs    []*core.Partial // nil for a stripe the capture did not want
}

// capture takes a version under the state lock held shared, with the
// segments of every stripe want selects (of every stripe, when want is
// nil). A stripe's latest segment is copied as it stands, with the
// table's prefix views (core.Partial.Capture), and every other segment,
// which nothing extends again, is shared.
func (s *Server) capture(want func(*shard) bool) version {
	s.paths.RLock()
	defer s.paths.RUnlock()
	v := version{stripes: make([]stripeCut, len(s.shards)), paths: s.paths.Paths(), pending: s.sinceCkpt.Load()}
	for i, sh := range s.shards {
		v.stripes[i] = stripeCut{sh: sh, records: sh.records}
		if want == nil || want(sh) {
			segs := slices.Clone(sh.segs)
			segs[slices.Index(segs, sh.lastSeg)] = sh.lastSeg.Capture()
			v.stripes[i].segs = segs
		}
	}
	return v
}

// fold folds a version, in trace order, into a fresh master accumulator
// — the exact state the offline slice path would hold after analyzing
// the concatenated records. It holds no lock.
func (s *Server) fold(v version) (*core.Analysis, error) {
	opts := s.cfg.Opts
	opts.Journal = false
	m := core.New(opts)
	var ps []*core.Partial
	for _, c := range v.stripes {
		ps = append(ps, c.segs...)
	}
	if err := m.FoldPartials(ps); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return m, nil
}

// Accumulate folds everything ingested so far into a fresh master
// accumulator (see fold); ingest goes on meanwhile.
func (s *Server) Accumulate() (*core.Analysis, error) {
	return s.fold(s.capture(nil))
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
