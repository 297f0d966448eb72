package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The migd-live workload: the only serving path. Writers are a closed
// loop because batch forwarders wait for the ack; the reader is an open
// loop because verdict queries come from independent users.

// writers is the closed-loop writer count: min(nproc,4) - 1, at least 1.
// With the one reader the harness holds at most min(nproc,4)
// connections, as its goroutine budget allows.
func (h *harness) writers() int {
	n := h.nproc
	if n > 4 {
		n = 4
	}
	if n < 2 {
		return 1
	}
	return n - 1
}

// migdMinReps is the least number of measured reps of migd-live. One rep
// already fills a 10-second window, but a single rep's wall time spread
// by a fifth over ten same-code runs — too close to the bound — so the
// median is always taken over at least two.
const migdMinReps = 2

// readyTimeout bounds how long a daemon may take to answer /v1/stats.
const readyTimeout = 60 * time.Second

// migdRep is what one rep of migd-live measured.
type migdRep struct {
	stat       runStat
	ingestRate float64
	ingest     []float64 // per-batch POST latency, ms
	query      openLoopStats
	reportMS   float64
	restoreMS  float64
}

// runMigdLive is the migd-live workload.
func (h *harness) runMigdLive(def workloadDef) (*workloadResult, error) {
	w := &workloadResult{Name: def.Name, Correct: true}
	var in *migdInputs
	setup, err := timeSetup(1, func() error {
		path, err := h.genScanTrace()
		if err != nil {
			return err
		}
		recs, err := readTrace(path)
		if err != nil {
			return err
		}
		in, err = h.buildMigdInputs(recs)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.Inputs = []metric{
		single("records", "count", float64(in.records)),
		single("batches", "count", float64(len(in.batches))),
		single("batch_bytes", "B", float64(in.bytes)),
		single("writers", "count", float64(h.writers())),
		single("query_rate", "1/s", queryRate),
	}

	var series repSeries
	var rate, report, restore []float64
	var ingest, query, late [][]float64
	err = h.measure(w, false, migdMinReps, func(k int) {
		r, ok := h.migdRep(w, fmt.Sprintf("migd-live-rep%d", k), in)
		if !ok || k < 0 {
			return
		}
		series.add(r.stat)
		rate = append(rate, r.ingestRate)
		report = append(report, r.reportMS)
		restore = append(restore, r.restoreMS)
		ingest = append(ingest, r.ingest)
		query = append(query, r.query.latency)
		late = append(late, r.query.late)
	})
	if err != nil {
		return nil, err
	}
	w.Info = []metric{
		pooled("query_late_p50_ms", "ms", 0.50, late),
		pooled("query_late_p99_ms", "ms", 0.99, late),
	}
	return w, w.finish(def, setup, append(series.metrics(),
		perRep("ingest_recs_per_s", "1/s", rate),
		pooled("ingest_p50_ms", "ms", 0.50, ingest),
		pooled("ingest_p99_ms", "ms", 0.99, ingest),
		pooled("query_p50_ms", "ms", 0.50, query),
		pooled("query_p99_ms", "ms", 0.99, query),
		perRep("report_ms", "ms", report),
		perRep("restore_ms", "ms", restore),
	))
}

// startMigd launches a daemon on a free port with the checkpoint file,
// waits until /v1/stats answers with a body ready accepts, and returns
// the daemon with its base URL. migd cannot report a port it picked
// itself, so the port is picked by bind-and-release — and when the
// daemon exits before it is ready (it lost the port to someone else),
// the launch is retried on a fresh one.
func (h *harness) startMigd(label, ckpt string, client *http.Client, ready func([]byte) bool) (d *child, base string, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, "", err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		if d, err = h.start(label, "migd", []string{"-listen", addr, "-checkpoint", ckpt}, nil, nil); err != nil {
			return nil, "", err
		}
		base = "http://" + addr
		if _, err = d.waitReady(client, base+"/v1/stats", readyTimeout, ready); err == nil {
			return d, base, nil
		}
		d.cancel()
		d.wait()
		if !errors.Is(err, errExited) {
			break
		}
	}
	return nil, "", err
}

// sentPaths is the set of query paths whose batches have been acked.
type sentPaths struct {
	mu    sync.Mutex
	paths []string
	first chan struct{} // closed once the set is non-empty
}

// add publishes an acked batch's paths.
func (s *sentPaths) add(paths []string) {
	if len(paths) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.paths) == 0 {
		close(s.first)
	}
	s.paths = append(s.paths, paths...)
}

// pick draws one path already sent.
func (s *sentPaths) pick(rng *rand.Rand) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paths[rng.Intn(len(s.paths))]
}

// opCount counts operations off the workload's goroutine.
type opCount struct {
	attempted, failed int
	err               error // the first failure
}

// note counts one operation.
func (o *opCount) note(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.err == nil {
			o.err = err
		}
	}
}

// fold adds the counts to the workload.
func (o *opCount) fold(h *harness, w *workloadResult) {
	w.Attempted += o.attempted
	w.Failed += o.failed
	if o.err != nil {
		h.logf("%s: %d failed requests, first: %v", w.Name, o.failed, o.err)
	}
}

// migdRep runs one rep: fresh daemon, mixed ingest and query traffic,
// stats check, report, checkpoint, SIGTERM, restart on the checkpoint.
// ok is false when the rep failed too early to yield its measurements.
func (h *harness) migdRep(w *workloadResult, label string, in *migdInputs) (rep migdRep, ok bool) {
	ckpt := filepath.Join(h.tmp, label+".ckpt")
	defer os.Remove(ckpt)
	client := newClient()
	defer client.CloseIdleConnections()

	d, base, err := h.startMigd(label+"-migd", ckpt, client, func([]byte) bool { return true })
	if !w.op(h, err) {
		return rep, false
	}
	// Whatever happens below, the daemon is gone when the rep returns.
	defer func() {
		d.cancel()
		d.wait()
	}()

	// Mixed traffic: closed-loop writers beside one open-loop reader.
	sent := &sentPaths{first: make(chan struct{})}
	stop := make(chan struct{})
	var next atomic.Int64
	nw := h.writers()
	wcount := make([]opCount, nw)
	wlat := make([][]float64, nw)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for h.ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(in.batches) {
					return
				}
				s := time.Now()
				_, err := httpPost(h.ctx, c, base+"/v1/ingest/batch", in.batches[k].frame)
				took := ms(time.Since(s))
				wcount[i].note(err)
				if err == nil {
					wlat[i] = append(wlat[i], took)
					sent.add(in.batches[k].paths)
				}
			}
		}(i)
	}
	var qcount opCount
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		select {
		case <-sent.first:
		case <-stop:
			return
		}
		rng := rand.New(rand.NewSource(h.seed + 1))
		c := newClient()
		defer c.CloseIdleConnections()
		rep.query = openLoop(h.ctx, wallClock{}, queryRate, stop, func(int) {
			_, err := httpGet(h.ctx, c, base+"/v1/file"+sent.pick(rng)+"?now="+in.now)
			qcount.note(err)
		})
	}()
	wg.Wait()
	ingestWall := time.Since(t0)
	close(stop)
	<-readerDone
	for i := range wcount {
		wcount[i].fold(h, w)
		rep.ingest = append(rep.ingest, wlat[i]...)
	}
	qcount.fold(h, w)
	rep.ingestRate = float64(in.records) / ingestWall.Seconds()

	// Everything sent must be there.
	stats, err := httpGet(h.ctx, client, base+"/v1/stats")
	if err == nil {
		err = wantRecords(stats, in.records)
	}
	if !w.op(h, err) {
		w.Correct = false
		return rep, false
	}

	s := time.Now()
	body, err := httpGet(h.ctx, client, base+"/v1/report")
	rep.reportMS = ms(time.Since(s))
	if !w.op(h, err) {
		return rep, false
	}
	good := w.checkOutput(h, "/v1/report", body, in.wantReport)

	_, err = httpPost(h.ctx, client, base+"/v1/checkpoint", nil)
	if !w.op(h, err) {
		return rep, false
	}
	if !w.op(h, d.signal(syscall.SIGTERM)) {
		return rep, false
	}
	u1, err := d.wait()
	if !w.op(h, err) {
		return rep, false
	}

	// Restart on the same checkpoint: exec → first /v1/stats answering
	// the full count.
	d2, base2, err := h.startMigd(label+"-migd-restored", ckpt, client, func(b []byte) bool {
		return wantRecords(b, in.records) == nil
	})
	if !w.op(h, err) {
		return rep, false
	}
	rep.restoreMS = ms(time.Since(d2.start))
	defer func() {
		d2.cancel()
		d2.wait()
	}()
	restored, err := httpGet(h.ctx, client, base2+"/v1/stats")
	if !w.op(h, err) {
		return rep, false
	}
	if err := sameStats(stats, restored); !w.op(h, err) {
		w.Correct = false
		good = false
	}
	if !w.op(h, d2.signal(syscall.SIGTERM)) {
		return rep, false
	}
	u2, err := d2.wait()
	if !w.op(h, err) {
		return rep, false
	}
	rep.stat = runStat{
		wall: u2.End.Sub(u1.Start).Seconds(),
		cpu:  u1.CPU.Seconds(),
		rss:  u1.MaxRSSMB,
	}
	return rep, good
}

// wantRecords checks a /v1/stats body's record count.
func wantRecords(stats []byte, want int) error {
	var st map[string]int64
	if err := json.Unmarshal(stats, &st); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	if st["records"] != int64(want) {
		return fmt.Errorf("/v1/stats: %d records, want %d", st["records"], want)
	}
	return nil
}

// sameStats checks that a restored daemon's counters equal the pre-kill
// ones; the checkpoint counter alone restarts from zero.
func sameStats(before, after []byte) error {
	var a, b map[string]int64
	if err := json.Unmarshal(before, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(after, &b); err != nil {
		return err
	}
	for _, k := range []string{"records", "errors", "files", "shards", "segments"} {
		if a[k] != b[k] {
			return fmt.Errorf("/v1/stats after restore: %s = %d, was %d before the kill", k, b[k], a[k])
		}
	}
	return nil
}
