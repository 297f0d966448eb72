package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"filemig"
	"filemig/internal/core"
	"filemig/internal/migration"
	"filemig/internal/mss"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// The traced mode replays the end-to-end workloads' inputs in-process,
// wrapping each call into a layer's public functions in a span, and
// derives the per-layer metrics from span durations and from MemStats
// deltas around single-goroutine calls. End-to-end numbers never come
// from here. Each workload's whole path runs twice — once under a nil
// tracer, once traced — and the difference is reported as the tracing
// overhead; one real end-to-end rep of each workload gives the process
// overhead the in-process path does not pay.

// runTraced is the traced mode.
func (h *harness) runTraced() (*layerRun, error) {
	l := &layerRun{h: h, tr: newTracer(), vals: map[string]metric{}}

	// Inputs shared with the end-to-end workloads.
	var scanPath string
	var scan []trace.Record
	if !l.probe("setup: scan trace", func() error {
		var err error
		if scanPath, err = h.genScanTrace(); err != nil {
			return err
		}
		scan, err = readTrace(scanPath)
		return err
	}) {
		return l, fmt.Errorf("traced setup failed")
	}

	l.tracePipeReport()
	l.traceScanLarge(scanPath, scan)
	l.traceGrid()
	l.traceMigdLive(scan)
	return l, h.ctx.Err()
}

// wholePath runs one workload's in-process path twice — under a nil
// tracer, then traced under a root span named after the workload — sets
// the workload's unattributed share, and returns the traced duration.
func (l *layerRun) wholePath(name string, path func(root spanRef) error) (time.Duration, bool) {
	var untraced, traced time.Duration
	if !l.probe(name+": whole path, untraced", func() error {
		t0 := time.Now()
		err := path(spanRef{})
		untraced = time.Since(t0)
		return err
	}) {
		return 0, false
	}
	ok := l.probe(name+": whole path, traced", func() error {
		root := l.tr.root(name+"/0", name)
		err := path(root)
		traced = root.end()
		if err != nil {
			return err
		}
		l.set(name+".unattributed_share", unattributedShare(l.tr.snapshot(), root.id))
		l.info = append(l.info,
			single(name+".inprocess_ms", "ms", ms(traced)),
			single(name+".tracing_overhead_ms", "ms", ms(traced-untraced)))
		return nil
	})
	return traced, ok
}

// processOverhead runs one real end-to-end rep and sets the workload's
// process overhead: its wall time minus the in-process whole path.
func (l *layerRun) processOverhead(name string, inproc time.Duration, rep func() (float64, error)) {
	l.probe(name+": one end-to-end rep", func() error {
		wall, err := rep()
		if err != nil {
			return err
		}
		l.set(name+".process_overhead_ms", wall*1000-ms(inproc))
		return nil
	})
}

// pipeTimes is what one pass over pipe-report's in-process path took.
type pipeTimes struct {
	records               int
	gen, replay, enc, dec time.Duration
	rest, period, co      time.Duration
	genMallocs            uint64
	sha                   string
}

// pipePath is pipe-report in-process: generate, simulate, cross the
// ASCII wire, accumulate, report, render everything. It returns the
// sha256 of the rendered output in t.sha.
func (h *harness) pipePath(root spanRef) (pipeTimes, error) {
	var t pipeTimes
	var err error
	var res *workload.Result
	t.gen, err = root.do("workload.generate", func() error {
		var err error
		t.genMallocs, err = mallocsDuring(func() error {
			var err error
			res, err = workload.Generate(h.pipeConfig())
			return err
		})
		return err
	})
	if err != nil {
		return t, err
	}
	var recs []trace.Record
	if t.replay, err = root.do("mss.replay", func() error {
		var err error
		recs, err = mss.NewSimulator(mss.DefaultConfig(h.seed)).Replay(res.Records)
		return err
	}); err != nil {
		return t, err
	}
	var buf bytes.Buffer
	if t.enc, err = root.do("trace.v1.encode", func() error {
		return trace.WriteAllFormat(&buf, recs, trace.FormatASCII)
	}); err != nil {
		return t, err
	}
	if t.dec, err = root.do("trace.v1.decode", func() error {
		var err error
		recs, err = trace.ReadAll(&buf)
		return err
	}); err != nil {
		return t, err
	}
	t.records = len(recs)
	a := core.New(analysisOptions)
	root.do("core.accumulate", func() error { a.AddAll(recs); return nil })
	p := &filemig.Pipeline{Records: recs}
	root.do("core.report", func() error { p.Report = a.Report(); return nil })

	// Render as mssanalyze -all does, one span per group: everything
	// but the two expensive artefacts, then periodicity, then coalesce.
	var text string
	render := root.child("core.render")
	for _, e := range filemig.Experiments() {
		name, took := "core.render.rest", &t.rest
		switch e.ID {
		case "periodicity":
			name, took = "core.render.periodicity", &t.period
		case "coalesce":
			name, took = "migration.coalesce", &t.co
		}
		d, _ := render.do(name, func() error {
			text += fmt.Sprintf("== %s ==\n%s\n", e.Title, e.Render(p))
			return nil
		})
		*took += d
	}
	render.end()
	t.sha = sha(text)
	return t, nil
}

// tracePipeReport measures the layers pipe-report exercises.
func (l *layerRun) tracePipeReport() {
	h := l.h
	const name = "pipe-report"
	// The untraced pass is the reference: the traced pass and the real
	// pipeline must both reproduce its output.
	var want string
	var t pipeTimes
	inproc, ok := l.wholePath(name, func(root spanRef) error {
		var err error
		if t, err = h.pipePath(root); err != nil {
			return err
		}
		if want == "" {
			want = t.sha
		} else if t.sha != want {
			return fmt.Errorf("two in-process passes rendered different output")
		}
		return nil
	})
	if !ok {
		return
	}
	n := t.records
	l.set("workload.generate.ns_per_rec", perRec(t.gen, n))
	l.set("workload.generate.allocs_per_rec", float64(t.genMallocs)/float64(n))
	l.set("mss.replay.ns_per_rec", perRec(t.replay, n))
	l.set("trace.v1.encode.ns_per_rec", perRec(t.enc, n))
	l.set("trace.v1.decode.ns_per_rec", perRec(t.dec, n))
	l.set("core.render.ms", ms(t.rest+t.period))
	l.set("core.render.periodicity.ms", ms(t.period))
	l.set("core.render.rest.ms", ms(t.rest))
	l.set("migration.coalesce.ms", ms(t.co))
	l.processOverhead(name, inproc, func() (float64, error) {
		stat, out, err := h.pipeRep("traced-pipe-report")
		if err == nil && sha(string(out)) != want {
			err = fmt.Errorf("mssanalyze output differs from the reference")
		}
		return stat.wall, err
	})
}

// openB2 opens a b2 trace file through its block index.
func openB2(path string) (*trace.B2File, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	bf, err := trace.OpenB2File(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return bf, f, nil
}

// streamOptions are the streaming analysis options at a worker count.
func streamOptions(workers int) core.StreamOptions {
	return core.StreamOptions{Options: analysisOptions, Workers: workers}
}

// scanPath is scan-large in-process: open the b2 index, index-seek
// analysis at the tools' default worker count, render the requested ids.
func (h *harness) scanPath(root spanRef, path, want string) (open time.Duration, err error) {
	var bf *trace.B2File
	var f *os.File
	if open, err = root.do("trace.b2.open", func() error {
		var err error
		bf, f, err = openB2(path)
		return err
	}); err != nil {
		return 0, err
	}
	defer f.Close()
	var rep *core.Report
	if _, err = root.do("core.b2seek_wN", func() error {
		var err error
		rep, err = core.AnalyzeB2(h.ctx, core.B2Options{StreamOptions: streamOptions(h.nproc)}, bf)
		return err
	}); err != nil {
		return 0, err
	}
	var text string
	if _, err = root.do("core.render.rest", func() error {
		var err error
		text, err = renderExperiments(&filemig.Pipeline{Report: rep}, scanIDs)
		return err
	}); err != nil {
		return 0, err
	}
	if got := sha(text); got != want {
		return 0, fmt.Errorf("in-process scan-large output sha256 %s, want %s", got, want)
	}
	return open, nil
}

// countingWriter discards what it is given and counts it.
type countingWriter int64

// Write counts p.
func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// traceScanLarge measures the layers scan-large exercises: the codecs,
// the interner, accumulate/partial/fold, the five whole analysis paths
// and their in-run ratios, and the snapshot codec.
func (l *layerRun) traceScanLarge(path string, recs []trace.Record) {
	h := l.h
	const name = "scan-large"
	n := len(recs)
	probes := l.tr.root(name+"/probes", name+".probes")
	defer probes.end()

	// core.slice: decode, accumulate and report on the slice path — the
	// reference every other path's output is held to, and core.report.
	var want string
	var slice time.Duration
	if !l.probe("core: slice path", func() error {
		var p *filemig.Pipeline
		var err error
		slice, err = probes.do("core.slice", func() error {
			got, err := readTrace(path)
			if err != nil {
				return err
			}
			a := core.New(analysisOptions)
			a.AddAll(got)
			p = &filemig.Pipeline{Records: got}
			t0 := time.Now()
			p.Report = a.Report()
			l.set("core.report.ms", ms(time.Since(t0)))
			return nil
		})
		if err != nil {
			return err
		}
		l.set("core.slice.ms", ms(slice))
		text, err := renderExperiments(p, scanIDs)
		want = sha(text)
		return err
	}) {
		return
	}

	var open time.Duration
	inproc, ok := l.wholePath(name, func(root spanRef) error {
		var err error
		open, err = h.scanPath(root, path, want)
		return err
	})
	if ok {
		l.set("trace.b2.open.ms", ms(open))
		args := []string{"-i", path, "-stream"}
		for _, id := range scanIDs {
			args = append(args, "-id", id)
		}
		l.processOverhead(name, inproc, func() (float64, error) {
			var out bytes.Buffer
			u, err := h.runTool("traced-scan-large-mssanalyze", "mssanalyze", args, &out)
			if err == nil && sha(out.String()) != want {
				err = fmt.Errorf("mssanalyze output differs from the reference")
			}
			return combine(u).wall, err
		})
	}

	// The four whole paths beside slice, each checked against it.
	whole := map[string]time.Duration{}
	for _, v := range []struct {
		name    string
		workers int
		b2seek  bool
	}{
		{"core.stream_w1", 1, false}, {"core.stream_wN", h.nproc, false},
		{"core.b2seek_w1", 1, true}, {"core.b2seek_wN", h.nproc, true},
	} {
		l.probe("core: "+v.name, func() error {
			var rep *core.Report
			d, err := probes.do(v.name, func() error {
				if v.b2seek {
					bf, f, err := openB2(path)
					if err != nil {
						return err
					}
					defer f.Close()
					rep, err = core.AnalyzeB2(h.ctx, core.B2Options{StreamOptions: streamOptions(v.workers)}, bf)
					return err
				}
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				defer f.Close()
				src, err := trace.OpenStream(f)
				if err != nil {
					return err
				}
				rep, err = core.AnalyzeStream(h.ctx, streamOptions(v.workers), src)
				return err
			})
			if err != nil {
				return err
			}
			text, err := renderExperiments(&filemig.Pipeline{Report: rep}, scanIDs)
			if err == nil && sha(text) != want {
				err = fmt.Errorf("%s output differs from the slice path", v.name)
			}
			whole[v.name] = d
			l.set(v.name+".ms", ms(d))
			return err
		})
	}
	if len(whole) == 4 {
		l.set("core.stream_over_slice", ratio(whole["core.stream_wN"], slice))
		l.set("core.stream_par_speedup", ratio(whole["core.stream_w1"], whole["core.stream_wN"]))
		l.set("core.b2seek_par_speedup", ratio(whole["core.b2seek_w1"], whole["core.b2seek_wN"]))
	}

	// trace: sequential and parallel b2 decode, b1, the interner.
	st, err := os.Stat(path)
	if err == nil {
		l.set("trace.b2.bytes_per_rec", float64(st.Size())/float64(n))
	}
	var seq time.Duration
	l.probe("trace: b2 sequential decode", func() error {
		mallocs, err := mallocsDuring(func() error {
			var err error
			seq, err = probes.do("trace.b2.decode", func() error {
				got, err := readTrace(path)
				if err == nil && len(got) != n {
					err = fmt.Errorf("decoded %d records, want %d", len(got), n)
				}
				return err
			})
			return err
		})
		l.set("trace.b2.decode.ns_per_rec", perRec(seq, n))
		l.set("trace.b2.decode.allocs_per_rec", float64(mallocs)/float64(n))
		return err
	})
	l.probe("trace: b2 parallel decode", func() error {
		d, err := probes.do("trace.b2.stream_wN", func() error {
			bf, f, err := openB2(path)
			if err != nil {
				return err
			}
			defer f.Close()
			got, err := trace.Collect(bf.Stream(h.nproc))
			if err == nil && len(got) != n {
				err = fmt.Errorf("decoded %d records, want %d", len(got), n)
			}
			return err
		})
		l.set("trace.b2.stream_wN.ns_per_rec", perRec(d, n))
		l.set("trace.b2.par_speedup", ratio(seq, d))
		return err
	})
	var b1 bytes.Buffer
	l.probe("trace: b1 decode", func() error {
		if err := trace.WriteAllFormat(&b1, recs, trace.FormatBinary); err != nil {
			return err
		}
		l.set("trace.b1.bytes_per_rec", float64(b1.Len())/float64(n))
		d, err := probes.do("trace.b1.decode", func() error {
			got, err := trace.ReadAll(bytes.NewReader(b1.Bytes()))
			if err == nil && len(got) != n {
				err = fmt.Errorf("decoded %d records, want %d", len(got), n)
			}
			return err
		})
		l.set("trace.b1.decode.ns_per_rec", perRec(d, n))
		return err
	})
	l.traceFrames(probes, b1.Bytes())
	l.probe("trace: interner", func() error {
		d, _ := probes.do("trace.intern", func() error {
			in := trace.NewInterner()
			for i := range recs {
				in.Intern(recs[i].MSSPath)
			}
			return nil
		})
		l.set("trace.intern.ns_per_rec", perRec(d, n))
		return nil
	})

	// core: accumulate, per-shard partials, fold.
	l.probe("core: accumulate", func() error {
		mallocs, _ := mallocsDuring(func() error {
			d, _ := probes.do("core.accumulate", func() error {
				core.New(analysisOptions).AddAll(recs)
				return nil
			})
			l.set("core.accumulate.ns_per_rec", perRec(d, n))
			return nil
		})
		l.set("core.accumulate.allocs_per_rec", float64(mallocs)/float64(n))
		return nil
	})
	l.probe("core: partial + fold", func() error {
		opts := analysisOptions
		opts.Start = recs[0].Start.Truncate(24 * time.Hour)
		var parts []*core.Partial
		d, _ := probes.do("core.partial", func() error {
			for _, shard := range cutShards(recs, opts.Start, core.DefaultShardDuration) {
				parts = append(parts, core.AccumulatePartial(opts, shard))
			}
			return nil
		})
		l.set("core.partial.ns_per_rec", perRec(d, n))
		d, err := probes.do("core.fold", func() error {
			return core.NewAccumulator(opts).FoldPartials(parts)
		})
		l.set("core.fold.ns_per_rec", perRec(d, n))
		return err
	})

	// core: the s1 snapshot codec.
	l.probe("core: snapshot save + merge", func() error {
		opts := analysisOptions
		opts.Journal = true
		journaled := func(r []trace.Record) *core.Analysis {
			a := core.New(opts)
			a.AddAll(r)
			return a
		}
		full := journaled(recs)
		var size countingWriter
		d, err := probes.do("core.snapshot.save", func() error { return full.WriteSnapshot(&size) })
		if err != nil {
			return err
		}
		l.set("core.snapshot.save.ms", ms(d))
		l.set("core.snapshot.bytes_per_rec", float64(size)/float64(n))
		var h1, h2 bytes.Buffer
		if err := journaled(recs[:n/2]).WriteSnapshot(&h1); err != nil {
			return err
		}
		if err := journaled(recs[n/2:]).WriteSnapshot(&h2); err != nil {
			return err
		}
		d, err = probes.do("core.snapshot.merge", func() error {
			_, err := core.MergeSnapshots(&h1, &h2)
			return err
		})
		l.set("core.snapshot.merge.ms", ms(d))
		return err
	})

	l.probe("migration: accesses", func() error {
		d, _ := probes.do("migration.accesses", func() error {
			migration.AccessesFromRecords(recs)
			return nil
		})
		l.set("migration.accesses.ns_per_rec", perRec(d, n))
		return nil
	})
}

// cutShards cuts records into the time shards the streaming analysis
// uses: width-wide partitions counted from origin.
func cutShards(recs []trace.Record, origin time.Time, width time.Duration) [][]trace.Record {
	var out [][]trace.Record
	for i := 0; i < len(recs); {
		k := recs[i].Start.Sub(origin) / width
		j := i + 1
		for j < len(recs) && recs[j].Start.Sub(origin)/width == k {
			j++
		}
		out = append(out, recs[i:j])
		i = j
	}
	return out
}

// writeLayers writes the traced run's result file and spans.
func (h *harness) writeLayers(l *layerRun, res *result) error {
	if err := l.tr.write(filepath.Join(h.out, "spans.json")); err != nil {
		return err
	}
	return writeJSON(filepath.Join(h.out, "layers.json"), res)
}
