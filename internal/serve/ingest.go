package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/trace"
)

// maxIngestBody bounds an ingest request body, matching the dist
// frame's own payload ceiling.
const maxIngestBody = 1 << 30

// Pool hygiene: a scratch that grew past these sizes serving one huge
// request is dropped rather than pooled, and a body buffer is never
// pre-sized past maxPooledBody on a Content-Length's say-so.
const (
	maxPooledBody = 1 << 20
	maxPooledRecs = 1 << 13
)

// lookupStride is how many records a decode resolves against the path
// table per hold of its read lock, so one huge body cannot keep a
// waiting writer — and the readers queued behind it — out for long.
const lookupStride = 256

// ingestScratch is everything one ingest request needs that can be
// reused by the next: the body buffer, the b1 reader state, the decoded
// records, their MSS path keys, and their FileIDs where the path table
// already knew the path. Scratches are pooled; nothing in one outlives
// its request except what Ingest copied into the table.
type ingestScratch struct {
	body   []byte
	b1     trace.BinaryReader
	recs   []trace.Record
	keys   [][]byte         // parallel to recs inside a request: each MSS path, a view into body
	ids    []trace.FileID   // parallel to recs; NoFileID: not in the table when decoded
	misses []trace.PathMiss // the records whose path the table lacked, in record order
	ack    []byte           // the response body

	srv  *Server             // whose table the keys resolve in; nil outside a request
	keep func([]byte) string // sc.keepKey, bound once
}

var scratchPool = sync.Pool{New: func() any {
	sc := &ingestScratch{}
	sc.keep = sc.keepKey
	return sc
}}

// putScratch returns sc to the pool unless one request bloated it.
func putScratch(sc *ingestScratch) {
	sc.srv = nil
	clear(sc.keys) // views into a body buffer the next request may replace
	if cap(sc.body) > maxPooledBody || cap(sc.recs) > maxPooledRecs || cap(sc.ids) > maxPooledRecs {
		return
	}
	scratchPool.Put(sc)
}

// keepKey is a b1 request body's MSS path hook: it keeps the path's
// bytes, a view into the body, for resolve, and gives the record no
// string — nothing downstream of the decode reads one.
func (sc *ingestScratch) keepKey(b []byte) string {
	sc.keys = append(sc.keys, b)
	return ""
}

// resolve looks every kept key up in the daemon's table, lookupStride
// keys per hold of its read lock: a path the table holds resolves to its
// FileID, which ingest then uses as is; any other is noted as a miss,
// and enters the table only once the whole batch has validated
// (internBatch).
//
//filemig:hotpath
func (sc *ingestScratch) resolve() {
	t := sc.srv.paths
	sc.ids = slices.Grow(sc.ids[:0], len(sc.keys))[:len(sc.keys)]
	for lo := 0; lo < len(sc.keys); lo += lookupStride {
		hi, n := min(lo+lookupStride, len(sc.keys)), len(sc.misses)
		t.RLock()
		sc.misses = t.LookupBatch(sc.keys[lo:hi], sc.ids[lo:hi], sc.misses)
		t.RUnlock()
		for k := n; k < len(sc.misses); k++ {
			sc.misses[k].Key += lo
		}
	}
}

// dropPath canonicalises a path field nobody will read.
func dropPath([]byte) string { return "" }

// decode decodes body — a complete trace stream in any format the codec
// sniffs — into sc.recs and sc.ids, enforcing the non-decreasing start
// order every accumulation path requires. The whole body is decoded and
// validated before it returns, so a caller applies either every record
// or none. A b1 body, the batch forwarders' format, is decoded in place:
// the wire reader's window is body itself and the pooled reader state
// is reset, not rebuilt. ASCII v1 and columnar b2 bodies go through
// NewFormatReader; a b2 body is read in place through its block index.
func (sc *ingestScratch) decode(body []byte) error {
	sc.recs, sc.keys, sc.ids, sc.misses = sc.recs[:0], sc.keys[:0], sc.ids[:0], sc.misses[:0]
	if len(body) == 0 {
		return nil // the empty trace
	}
	f, err := trace.SniffFormat(body)
	if err != nil {
		return err
	}
	// Inside a request, a b1 body's MSS paths are kept as keys and
	// resolved against the daemon's table once the body has decoded,
	// and its local paths, of which the daemon keeps nothing, are
	// dropped; outside one (DecodeIngest) both go through the pooled
	// reader's bounded cache.
	looksUp := f == trace.FormatBinary && sc.srv != nil
	var st trace.Stream
	switch {
	case looksUp:
		sc.b1.ResetBytes(body, sc.keep, dropPath)
		st = &sc.b1
	case f == trace.FormatBinary:
		sc.b1.ResetBytes(body, nil, nil)
		st = &sc.b1
	default:
		if st, err = trace.NewFormatReader(bytes.NewReader(body), f); err != nil {
			return err
		}
	}
	for {
		r, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if n := len(sc.recs); n > 0 && r.Start.Before(sc.recs[n-1].Start) {
			return fmt.Errorf("serve: record %d starts at %v, before record %d at %v (ingest bodies must be in trace order)",
				n+1, r.Start, n, sc.recs[n-1].Start)
		}
		sc.recs = append(sc.recs, r)
	}
	if looksUp {
		sc.resolve()
	} else {
		sc.ids = unknownIDs(sc.ids, len(sc.recs))
	}
	return nil
}

// unknownIDs returns ids resized to n entries, all NoFileID.
func unknownIDs(ids []trace.FileID, n int) []trace.FileID {
	ids = ids[:0]
	for i := 0; i < n; i++ {
		ids = append(ids, trace.NoFileID)
	}
	return ids
}

// DecodeIngest decodes an ingest body — a complete trace stream in any
// format the codec sniffs (ASCII v1, binary b1, columnar b2) — into
// records, enforcing the non-decreasing start order every accumulation
// path requires. It decodes and validates the whole body before
// returning, so a caller applies either every record or none; decode
// errors carry the offending record index and byte offset. The returned
// records are the caller's: nothing in them aliases body.
func DecodeIngest(body []byte) ([]trace.Record, error) {
	sc := scratchPool.Get().(*ingestScratch)
	defer putScratch(sc)
	if err := sc.decode(body); err != nil {
		return nil, err
	}
	if len(sc.recs) == 0 {
		return nil, nil
	}
	return append([]trace.Record(nil), sc.recs...), nil
}

// DecodeIngestFrame unwraps one dist wire frame and decodes its payload
// with DecodeIngest — the batch ingest body format. The CRC check means
// a truncated or bit-flipped batch is rejected whole, never partially
// applied.
func DecodeIngestFrame(body []byte) ([]trace.Record, error) {
	payload, err := dist.DecodeFrame(body)
	if err != nil {
		return nil, err
	}
	return DecodeIngest(payload)
}

// Ingest validates and applies one already-decoded batch of records.
// The batch must be internally ordered (DecodeIngest enforces this for
// HTTP bodies); batches from different clients may arrive in any order
// relative to each other.
func (s *Server) Ingest(recs []trace.Record) {
	sc := scratchPool.Get().(*ingestScratch)
	sc.ids = unknownIDs(sc.ids, len(recs))
	s.ingest(recs, sc.ids, nil, nil)
	putScratch(sc)
}

// ingest applies one validated batch. ids is parallel to recs: a good
// record's FileID in the daemon-wide table where the decoder already
// resolved it, NoFileID where the path has yet to be interned (ingest
// fills those in). misses are the decoder's lookups that missed, over
// its keys; a batch that arrives as records (Ingest) has none, and
// interns its NoFileID records' paths by string.
func (s *Server) ingest(recs []trace.Record, ids []trace.FileID, keys [][]byte, misses []trace.PathMiss) {
	if len(recs) == 0 {
		return
	}
	s.paths.Lock()
	s.internBatch(recs, ids, keys, misses)
	for i := 0; i < len(recs); {
		k := s.shardKey(recs[i].Start)
		j := i + 1
		for j < len(recs) && s.shardKey(recs[j].Start) == k {
			j++
		}
		s.applyRun(s.getShard(k), recs[i:j], ids[i:j])
		i = j
	}
	s.records.Add(int64(len(recs)))
	s.sinceCkpt.Add(int64(len(recs)))
	s.paths.Unlock()
	s.maybeCheckpoint()
}

// internBatch interns the batch's not-yet-known paths into the
// daemon-wide table — the one place the table grows, and only ever
// with the good records' paths of a batch that validated whole, in
// record order — and folds every good reference into its file's live
// row. A miss resumes its lookup's probe (InternMiss), so a new path is
// hashed once. The caller holds the state lock exclusively.
func (s *Server) internBatch(recs []trace.Record, ids []trace.FileID, keys [][]byte, misses []trace.PathMiss) {
	for _, m := range misses {
		if recs[m.Key].OK() {
			ids[m.Key] = s.fileRow(s.paths.InternMiss(keys[m.Key], m))
		}
	}
	for i := range recs {
		r := &recs[i]
		if !r.OK() {
			continue
		}
		if ids[i] == trace.NoFileID {
			ids[i] = s.fileRow(s.paths.Intern(r.MSSPath))
		}
		s.files[ids[i]].observe(r.Op, r.Start.UnixNano(), r.Size)
	}
}

// fileRow returns id, first adding its file's live row when the table
// has just issued it. Full rows double, in step with the table's index,
// rather than growing by append's quarter.
func (s *Server) fileRow(id trace.FileID) trace.FileID {
	if int(id) == len(s.files) {
		if len(s.files) == cap(s.files) {
			s.files = slices.Grow(s.files, len(s.files)+1)
		}
		s.files = append(s.files, fileRow{})
	}
	return id
}

// applyRun observes one run of records that share a stripe, appending
// to the stripe's latest segment when the run continues it in time
// order and opening a fresh segment otherwise. The caller holds the
// state lock exclusively.
func (s *Server) applyRun(sh *shard, recs []trace.Record, ids []trace.FileID) {
	p, created := sh.lastSeg, sh.lastSeg == nil || recs[0].Start.Before(sh.maxLast)
	if created {
		p = core.NewSegment(s.cfg.Opts, s.paths.Interner)
	}
	p.Grow(len(recs))
	for i := range recs {
		if !recs[i].OK() {
			s.errRecords.Add(1)
		}
		p.Observe(&recs[i], ids[i])
	}
	sh.records += int64(len(recs))
	sh.add(p, created)
}

// handleIngest serves POST /v1/ingest: a bare trace-stream body.
func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	s.ingestHTTP(w, req, false)
}

// handleIngestBatch serves POST /v1/ingest/batch: a dist-framed
// trace-stream body.
func (s *Server) handleIngestBatch(w http.ResponseWriter, req *http.Request) {
	s.ingestHTTP(w, req, true)
}

// ingestHTTP reads, decodes, and applies one ingest body through a
// pooled scratch: in the steady state — a batch of paths the table
// already holds — nothing below the HTTP layer allocates.
func (s *Server) ingestHTTP(w http.ResponseWriter, req *http.Request, framed bool) {
	sc := scratchPool.Get().(*ingestScratch)
	defer putScratch(sc)
	var err error
	sc.body, err = readBody(sc.body, http.MaxBytesReader(w, req.Body, maxIngestBody), req.ContentLength)
	if err != nil {
		http.Error(w, "serve: reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	payload := sc.body
	if framed {
		if payload, err = dist.DecodeFrame(payload); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	sc.srv = s
	if err := sc.decode(payload); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.ingest(sc.recs, sc.ids, sc.keys, sc.misses)
	// The acknowledgement, byte for byte what encoding/json indents for
	// {"records": n, "total": m}.
	sc.ack = append(sc.ack[:0], "{\n  \"records\": "...)
	sc.ack = strconv.AppendInt(sc.ack, int64(len(sc.recs)), 10)
	sc.ack = append(sc.ack, ",\n  \"total\": "...)
	sc.ack = strconv.AppendInt(sc.ack, s.records.Load(), 10)
	sc.ack = append(sc.ack, "\n}\n"...)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(sc.ack) // a client that hung up is not the daemon's error
}

// readBody reads r to its end into buf's backing array, growing it only
// when the body outruns it: sized once from the declared length (up to
// maxPooledBody — past that the buffer grows as bytes actually arrive,
// so a lying Content-Length reserves nothing), a pooled buffer takes
// the next same-sized body without allocating.
func readBody(buf []byte, r io.Reader, declared int64) ([]byte, error) {
	buf = buf[:0]
	if want := min(declared+1, maxPooledBody); int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
