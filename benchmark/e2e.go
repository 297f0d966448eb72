package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"regexp"
	"time"
)

// The end-to-end mode: each workload runs the tools the way a user runs
// them — real processes, real files, a real pipe, real loopback
// listeners — and every rep's output is checked against a reference
// rendered in-process during setup.

// harness is one benchmark run's state.
type harness struct {
	// root is the repository root; out, bin, logs and tmp lie under the
	// -out directory, and tmp is removed on every exit path.
	root, out, bin, logs, tmp string

	seed    int64
	seconds time.Duration
	nproc   int
	sizes   sizes
	procs   procSet
	// progress receives one line per step; results go to stdout.
	progress io.Writer
	// ctx is the run's context, cancelled by SIGINT and SIGTERM; every
	// child process and request the harness makes derives from it.
	ctx context.Context
}

// logf writes one progress line.
func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.progress, "benchmark: "+format+"\n", args...)
}

// op counts one attempted operation on the workload, failed when err is
// non-nil.
func (w *workloadResult) op(h *harness, err error) bool {
	w.Attempted++
	if err != nil {
		w.Failed++
		h.logf("%s: failed operation: %v", w.Name, err)
		return false
	}
	return true
}

// checkOutput is the output check: got must hash to want. A mismatch is
// a failed operation and marks the whole workload incorrect.
func (w *workloadResult) checkOutput(h *harness, what string, got []byte, want string) bool {
	var err error
	if g := sha(string(got)); g != want {
		err = fmt.Errorf("%s: output sha256 %s, want %s", what, g, want)
		w.Correct = false
	}
	return w.op(h, err)
}

// measure runs rep as the discarded warm-up (k = -1) when the workload
// has one, then as measured reps (k = 0, 1, ...) for as close to the
// measuring window as whole reps come: another rep starts only while half
// of it still fits. The window, not a count, fixes the number of reps, so
// the same -seconds on both sides of a comparison means the same N;
// minReps is the floor a workload needs whatever the window.
func (h *harness) measure(w *workloadResult, warmup bool, minReps int, rep func(k int)) error {
	if warmup && h.sizes.Warmup {
		attempted, failed := w.Attempted, w.Failed
		rep(-1)
		// The warm-up is discarded whole, operations included; a check
		// it failed still marks the workload incorrect.
		w.Attempted, w.Failed = attempted, failed
	}
	t0 := time.Now()
	for k := 0; ; k++ {
		if err := h.ctx.Err(); err != nil {
			return err
		}
		rep(k)
		w.Reps++
		elapsed := time.Since(t0)
		if w.Reps >= minReps && elapsed+elapsed/time.Duration(2*w.Reps) > h.seconds {
			return nil
		}
	}
}

// runStat is one rep's process cost.
type runStat struct {
	wall, cpu, rss float64
}

// combine folds the children of one run: wall from the first exec to the
// last exit, CPU summed, peak RSS the largest.
func combine(us ...usage) runStat {
	var s runStat
	first, last := us[0].Start, us[0].End
	for _, u := range us {
		if u.Start.Before(first) {
			first = u.Start
		}
		if u.End.After(last) {
			last = u.End
		}
		s.cpu += u.CPU.Seconds()
		if u.MaxRSSMB > s.rss {
			s.rss = u.MaxRSSMB
		}
	}
	s.wall = last.Sub(first).Seconds()
	return s
}

// repSeries collects per-rep process costs.
type repSeries struct {
	wall, cpu, rss []float64
}

// add appends one rep.
func (r *repSeries) add(s runStat) {
	r.wall = append(r.wall, s.wall)
	r.cpu = append(r.cpu, s.cpu)
	r.rss = append(r.rss, s.rss)
}

// metrics renders the three process-cost metrics.
func (r *repSeries) metrics() []metric {
	return []metric{
		perRep("wall_s", "s", r.wall),
		perRep("cpu_s", "s", r.cpu),
		perRep("peak_rss_mb", "MB", r.rss),
	}
}

// finish orders the workload's metrics as the table does, appends
// setup_s, and fails when a metric the table promises is missing.
func (w *workloadResult) finish(def workloadDef, setup []float64, ms []metric) error {
	ms = append(ms, perRep("setup_s", "s", setup))
	for _, name := range def.Metrics {
		found := false
		for _, m := range ms {
			if m.Name == name && m.N > 0 {
				w.Metrics = append(w.Metrics, m)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%s: no successful measurement of %s", w.Name, name)
		}
	}
	return nil
}

// timeSetup runs setup n times and returns each duration; the last run's
// side effects are the ones the reps use.
func timeSetup(n int, setup func() error) ([]float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// runPipeReport is the pipe-report workload.
func (h *harness) runPipeReport(def workloadDef) (*workloadResult, error) {
	w := &workloadResult{Name: def.Name, Correct: true}
	var want string
	var records int
	setup, err := timeSetup(1, func() error {
		text, n, err := h.pipeReference()
		want, records = sha(text), n
		return err
	})
	if err != nil {
		return nil, err
	}
	w.Inputs = []metric{single("records", "count", float64(records))}

	var series repSeries
	err = h.measure(w, false, 1, func(k int) {
		stat, out, err := h.pipeRep(fmt.Sprintf("pipe-report-rep%d", k))
		if w.op(h, err) && w.checkOutput(h, "mssanalyze stdout", out, want) && k >= 0 {
			series.add(stat)
		}
	})
	if err != nil {
		return nil, err
	}
	return w, w.finish(def, setup, series.metrics())
}

// pipeRep runs `tracegen -sim | mssanalyze -i - -all` once over a real
// pipe and returns its cost and mssanalyze's stdout.
func (h *harness) pipeRep(label string) (runStat, []byte, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return runStat{}, nil, err
	}
	gen, err := h.start(label+"-tracegen", "tracegen", []string{
		"-scale", fmt.Sprint(h.sizes.PipeScale), "-seed", fmt.Sprint(h.seed),
		"-days", fmt.Sprint(h.sizes.Days), "-sim"}, nil, pw)
	pw.Close() // the child holds its own copy
	if err != nil {
		pr.Close()
		return runStat{}, nil, err
	}
	var out bytes.Buffer
	ana, err := h.start(label+"-mssanalyze", "mssanalyze", []string{"-i", "-", "-all"}, pr, &out)
	pr.Close()
	if err != nil {
		gen.wait() // reaped on SIGPIPE; the start error is the one to report
		return runStat{}, nil, err
	}
	ug, errGen := gen.wait()
	ua, errAna := ana.wait()
	if errGen != nil {
		return runStat{}, nil, errGen
	}
	if errAna != nil {
		return runStat{}, nil, errAna
	}
	return combine(ug, ua), out.Bytes(), nil
}

// runScanLarge is the scan-large workload.
func (h *harness) runScanLarge(def workloadDef) (*workloadResult, error) {
	w := &workloadResult{Name: def.Name, Correct: true}
	var path, want string
	var records int
	setup, err := timeSetup(1, func() error {
		var err error
		if path, err = h.genScanTrace(); err != nil {
			return err
		}
		recs, err := readTrace(path)
		if err != nil {
			return err
		}
		records = len(recs)
		text, err := renderExperiments(pipelineOf(recs), scanIDs)
		want = sha(text)
		return err
	})
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	w.Inputs = []metric{
		single("records", "count", float64(records)),
		single("trace_bytes", "B", float64(st.Size())),
	}

	args := []string{"-i", path, "-stream"}
	for _, id := range scanIDs {
		args = append(args, "-id", id)
	}
	var series repSeries
	err = h.measure(w, true, 1, func(k int) {
		var out bytes.Buffer
		u, err := h.runTool(fmt.Sprintf("scan-large-rep%d-mssanalyze", k), "mssanalyze", args, &out)
		if w.op(h, err) && w.checkOutput(h, "mssanalyze stdout", out.Bytes(), want) && k >= 0 {
			series.add(combine(u))
		}
	})
	if err != nil {
		return nil, err
	}
	return w, w.finish(def, setup, series.metrics())
}

// runTool runs one tool to completion.
func (h *harness) runTool(label, tool string, args []string, stdout io.Writer) (usage, error) {
	c, err := h.start(label, tool, args, nil, stdout)
	if err != nil {
		return usage{}, err
	}
	return c.wait()
}

// gridSetups is how often the (cheap) grid setup is repeated for a
// steadier setup_s.
const gridSetups = 2

// runGrid is the grid workload: run A in one process, run B through a
// coordinator and two workers.
func (h *harness) runGrid(def workloadDef) (*workloadResult, error) {
	w := &workloadResult{Name: def.Name, Correct: true}
	var specPath, want string
	var cells int
	setup, err := timeSetup(gridSetups, func() error {
		spec, err := h.gridSpec()
		if err != nil {
			return err
		}
		if specPath, err = h.writeGridSpec(spec); err != nil {
			return err
		}
		manifest, n, err := gridReference(h.ctx, spec, h.nproc)
		want, cells = sha(string(manifest)), n
		return err
	})
	if err != nil {
		return nil, err
	}
	w.Inputs = []metric{single("cells", "count", float64(cells)), single("workers", "count", distWorkers)}

	var series repSeries
	var distWall []float64
	err = h.measure(w, true, 1, func(k int) {
		var a bytes.Buffer
		u, err := h.runTool(fmt.Sprintf("grid-rep%d-run", k), "migexp",
			[]string{"run", specPath, "-json"}, &a)
		if w.op(h, err) && w.checkOutput(h, "run A manifest", a.Bytes(), want) && k >= 0 {
			series.add(combine(u))
		}
		if k < 0 {
			return // the warm-up only has to page the binary in
		}
		wall, b, err := h.gridDistributed(fmt.Sprintf("grid-rep%d", k), specPath)
		// Run B must be byte-identical to run A, which is the reference.
		if w.op(h, err) && w.checkOutput(h, "run B manifest", b, want) {
			distWall = append(distWall, wall)
		}
	})
	if err != nil {
		return nil, err
	}
	return w, w.finish(def, setup, append(series.metrics(), perRep("dist_wall_s", "s", distWall)))
}

// listeningRE captures the URL in the coordinator's "listening on" line.
var listeningRE = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// gridDistributed runs the spec through `migexp run -distributed` plus
// distWorkers `migexp worker` processes and returns the coordinator's exec →
// exit wall time and its manifest.
func (h *harness) gridDistributed(label, specPath string) (float64, []byte, error) {
	// The coordinator binds port 0 and announces the address it got on
	// stderr, so there is no window for another process to take the port.
	var out bytes.Buffer
	coord, err := h.start(label+"-coordinator", "migexp",
		[]string{"run", specPath, "-distributed", "-listen", "127.0.0.1:0", "-json"}, nil, &out)
	if err != nil {
		return 0, nil, err
	}
	url, err := coord.waitStderr(listeningRE, 30*time.Second)
	if err != nil {
		coord.cancel()
		coord.wait()
		return 0, nil, err
	}
	var workers []*child
	for i := 0; i < distWorkers; i++ {
		wk, err := h.start(fmt.Sprintf("%s-worker%d", label, i), "migexp",
			[]string{"worker", "-connect", url}, nil, io.Discard)
		if err != nil {
			coord.cancel()
			break
		}
		workers = append(workers, wk)
	}
	u, err := coord.wait()
	for _, wk := range workers {
		if _, werr := wk.wait(); werr != nil && err == nil {
			err = werr
		}
	}
	if err == nil && len(workers) < distWorkers {
		err = fmt.Errorf("%s: could not start every worker", label)
	}
	return u.End.Sub(u.Start).Seconds(), out.Bytes(), err
}
