package serve

import (
	"io"
	"net/http"
	"strings"
	"time"

	"filemig/internal/migration"
	"filemig/internal/units"
)

// FileStatus is the /v1/file answer for one file: its live table row,
// the STP rank a migration sweep would use, and the verdict.
type FileStatus struct {
	// Path is the file's MSS path.
	Path string `json:"path"`
	// Size is the file's size in bytes as of its latest reference.
	Size int64 `json:"size"`
	// Reads and Writes count the file's good references since the
	// daemon's trace began.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	// First and Last are the instants of the file's first and latest
	// references.
	First time.Time `json:"first"`
	Last  time.Time `json:"last"`
	// IdleSeconds is the age of the latest reference at the query
	// instant.
	IdleSeconds float64 `json:"idle_seconds"`
	// Rank is the space-time-product eviction rank, pow(idle_days, K) *
	// size — higher ranks migrate first.
	Rank float64 `json:"rank"`
	// Verdict is "migrate", "prefetch", or "keep".
	Verdict string `json:"verdict"`
}

// FileStatusAt computes the /v1/file answer for one path at the given
// instant. The second result reports whether the file has ever been
// referenced.
func (s *Server) FileStatusAt(path string, now time.Time) (FileStatus, bool) {
	s.paths.RLock()
	id, ok := s.paths.Lookup(path)
	if !ok {
		s.paths.RUnlock()
		return FileStatus{}, false
	}
	f := s.files[id]
	s.paths.RUnlock()
	st := FileStatus{
		Path:   path,
		Size:   int64(f.size),
		Reads:  f.reads,
		Writes: f.writes,
		First:  time.Unix(0, f.first).UTC(),
		Last:   time.Unix(0, f.last).UTC(),
	}

	refs := st.Reads + st.Writes
	idle := now.Sub(st.Last)
	if idle < 0 {
		idle = 0
	}
	st.IdleSeconds = idle.Seconds()
	// STP's rank reads only the age, so the file is ranked idle after a
	// reference at instant 0: exact for any ?now=, where now.UnixNano()
	// would wrap outside the years 1678–2262.
	st.Rank = migration.STP{K: s.stpK}.Rank(&migration.CachedFile{
		Size: units.Bytes(st.Size),
		Refs: int(refs),
	}, int64(idle))

	// The verdict: a file idle past the migration age goes to tape; a
	// file inside the age but already past its mean interreference gap
	// is due for its next access and worth staging (the paper's Figure 8
	// rereference argument); everything else simply stays.
	switch {
	case idle >= s.migrateAfter:
		st.Verdict = "migrate"
	case refs >= 2 && idle >= st.Last.Sub(st.First)/time.Duration(refs-1):
		st.Verdict = "prefetch"
	default:
		st.Verdict = "keep"
	}
	return st, true
}

// handleFile serves GET /v1/file/{path}: the live migrate/keep/prefetch
// verdict for one file. The query instant defaults to the injected
// clock; ?now=RFC3339 overrides it.
func (s *Server) handleFile(w http.ResponseWriter, req *http.Request) {
	path := strings.TrimPrefix(req.URL.Path, "/v1/file")
	if path == "" || path == "/" {
		http.Error(w, "serve: no file path in URL (want /v1/file/<mss path>)", http.StatusBadRequest)
		return
	}
	now := s.cfg.Now()
	if q := req.URL.Query().Get("now"); q != "" {
		t, err := time.Parse(time.RFC3339, q)
		if err != nil {
			http.Error(w, "serve: bad now instant: "+err.Error(), http.StatusBadRequest)
			return
		}
		now = t
	}
	st, ok := s.FileStatusAt(path, now.UTC())
	if !ok {
		http.Error(w, "serve: no such file in the live table: "+path, http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// handleReport serves GET /v1/report: the full rendered op×class
// report over everything ingested so far.
func (s *Server) handleReport(w http.ResponseWriter, req *http.Request) {
	text, err := s.Report()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, text)
}

// Stats is the /v1/stats answer: the daemon's live counters.
type Stats struct {
	// Records counts every ingested record, errors included; Errors
	// counts the error records among them.
	Records int64 `json:"records"`
	Errors  int64 `json:"errors"`
	// Files is the live per-file table size.
	Files int64 `json:"files"`
	// Shards and Segments describe the in-memory partition: time
	// stripes, and contiguous accumulation segments across them.
	Shards   int64 `json:"shards"`
	Segments int64 `json:"segments"`
	// Checkpoints counts completed checkpoints since start.
	Checkpoints int64 `json:"checkpoints"`
}

// StatsNow snapshots the live counters.
func (s *Server) StatsNow() Stats {
	s.paths.RLock()
	defer s.paths.RUnlock()
	st := Stats{
		Records:     s.records.Load(),
		Errors:      s.errRecords.Load(),
		Files:       int64(len(s.files)),
		Shards:      int64(len(s.shards)),
		Checkpoints: s.checkpoints.Load(),
	}
	for _, sh := range s.shards {
		st.Segments += int64(len(sh.segs))
	}
	return st
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, s.StatsNow())
}
