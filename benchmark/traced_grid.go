package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"filemig/internal/dist"
	"filemig/internal/experiment"
	"filemig/internal/migration"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// gridPath is grid run A in-process: plan, run at the tools' default
// worker count, encode the manifest.
func (h *harness) gridPath(root spanRef, spec *experiment.Spec, want string) (plan, run, manifest time.Duration, err error) {
	s := *spec
	s.Workers = h.nproc
	var p *experiment.Plan
	if plan, err = root.do("experiment.plan", func() error {
		var err error
		p, err = experiment.BuildPlan(&s)
		return err
	}); err != nil {
		return
	}
	var m *experiment.Manifest
	if run, err = root.do("experiment.run_wN", func() error {
		var err error
		m, err = experiment.RunPlan(h.ctx, p)
		return err
	}); err != nil {
		return
	}
	var b []byte
	if manifest, err = root.do("experiment.manifest", func() error {
		var err error
		b, err = m.EncodeJSON()
		return err
	}); err != nil {
		return
	}
	if got := sha(string(b)); got != want {
		err = fmt.Errorf("in-process manifest sha256 %s, want %s", got, want)
	}
	return
}

// traceGrid measures the layers the grid workload exercises: experiment
// planning and running, single cells, per-policy replays, and the dist
// fan-out of the same plan.
func (l *layerRun) traceGrid() {
	h := l.h
	const name = "grid"
	var spec *experiment.Spec
	var specPath, want string
	var runW1 time.Duration
	if !l.probe("experiment: serial run (reference)", func() error {
		var err error
		if spec, err = h.gridSpec(); err != nil {
			return err
		}
		if specPath, err = h.writeGridSpec(spec); err != nil {
			return err
		}
		sp := l.tr.root(name+"/probes", "experiment.run_w1")
		b, _, err := gridReference(h.ctx, spec, 1)
		runW1 = sp.end()
		want = sha(string(b))
		return err
	}) {
		return
	}
	l.set("experiment.run_w1.ms", ms(runW1))

	var plan, runWN, manifest time.Duration
	inproc, ok := l.wholePath(name, func(root spanRef) error {
		var err error
		plan, runWN, manifest, err = h.gridPath(root, spec, want)
		return err
	})
	if !ok {
		return
	}
	l.set("experiment.plan.ms", ms(plan))
	l.set("experiment.run_wN.ms", ms(runWN))
	l.set("experiment.manifest.ms", ms(manifest))
	l.set("experiment.par_speedup", ratio(runW1, runWN))
	l.processOverhead(name, inproc, func() (float64, error) {
		var out bytes.Buffer
		u, err := h.runTool("traced-grid-migexp", "migexp", []string{"run", specPath, "-json"}, &out)
		if err == nil && sha(out.String()) != want {
			err = fmt.Errorf("migexp manifest differs from the reference")
		}
		return combine(u).wall, err
	})

	probes := l.tr.root(name+"/probes", name+".probes")
	defer probes.end()
	l.probe("experiment: single cells", func() error {
		p, err := experiment.BuildPlan(spec)
		if err != nil {
			return err
		}
		runner := experiment.NewCellRunner(p)
		var cells []float64
		for _, ref := range p.CellRefs() {
			d, err := probes.do("experiment.cell", func() error {
				_, err := runner.RunCell(h.ctx, ref)
				return err
			})
			if err != nil {
				return err
			}
			cells = append(cells, ms(d))
		}
		l.setDist("experiment.cell.p50_ms", median(cells), cells)
		l.setDist("experiment.cell.max_ms", percentile(cells, 1), cells)
		return nil
	})
	l.traceReplays(probes, spec)
	l.traceDist(spec, want, runWN)
}

// newGridPolicy builds a fresh instance of one grid policy, as the
// experiment layer's policy grammar would.
func newGridPolicy(spec string, accs []migration.Access) (migration.Policy, error) {
	switch spec {
	case "stp:1.4":
		return migration.STP{K: 1.4}, nil
	case "stp:1":
		return migration.STP{K: 1}, nil
	case "lru":
		return migration.LRU{}, nil
	case "fifo":
		return migration.FIFO{}, nil
	case "saac":
		return migration.SAAC{}, nil
	case "largest-first":
		return migration.LargestFirst{}, nil
	case "smallest-first":
		return migration.SmallestFirst{}, nil
	case "random":
		return migration.NewRandom(1), nil
	case "opt":
		return migration.NewOPT(migration.NewFutureIndex(accs)), nil
	case "arc":
		return migration.NewARC(), nil
	case "lruk:2":
		return migration.NewLRUK(2), nil
	case "gdsf":
		return migration.NewGDSF(), nil
	case "cost":
		return migration.NewCostAware(migration.DefaultTapeRateMBps), nil
	case "stp-adapt":
		return migration.NewAdaptiveSTP(), nil
	}
	return nil, fmt.Errorf("no constructor for grid policy %q", spec)
}

// replayCapacity is the capacity fraction the per-policy replays run at.
const replayCapacity = 0.02

// traceReplays times one cache replay per grid policy over the
// paper-1993 source of the grid, at capacity 0.02.
func (l *layerRun) traceReplays(probes spanRef, spec *experiment.Spec) {
	l.probe("migration: per-policy replays", func() error {
		cfg, err := workload.ScenarioConfig("paper-1993", spec.Scale, spec.Seed)
		if err != nil {
			return err
		}
		if spec.Days > 0 {
			cfg.Days = spec.Days
		}
		res, err := workload.Generate(cfg)
		if err != nil {
			return err
		}
		accs := migration.AccessesFromRecords(res.Records)
		capacity := units.Bytes(replayCapacity * float64(migration.TotalReferencedBytes(accs)))
		var mallocs uint64
		for _, p := range gridPolicies {
			n, err := mallocsDuring(func() error {
				d, err := probes.do("migration.replay."+p.name, func() error {
					policy, err := newGridPolicy(p.spec, accs)
					if err != nil {
						return err
					}
					c, err := migration.NewCache(migration.CacheConfig{Capacity: capacity, Policy: policy})
					if err != nil {
						return err
					}
					if r := c.Replay(accs); r.Accesses != int64(len(accs)) {
						return fmt.Errorf("%s replayed %d of %d accesses", p.spec, r.Accesses, len(accs))
					}
					return nil
				})
				l.set("migration.replay.ns_per_access."+p.name, perRec(d, len(accs)))
				return err
			})
			if err != nil {
				return err
			}
			mallocs += n
		}
		l.set("migration.replay.allocs_per_replay", float64(mallocs)/float64(len(gridPolicies)))
		return nil
	})
}

// traceFrames times the dist wire frame over a payload.
func (l *layerRun) traceFrames(probes spanRef, payload []byte) {
	l.probe("dist: frame encode + decode", func() error {
		if len(payload) == 0 {
			return fmt.Errorf("no payload to frame")
		}
		kb := float64(len(payload)) / 1024
		var framed []byte
		d, _ := probes.do("dist.frame.encode", func() error { framed = dist.EncodeFrame(payload); return nil })
		l.set("dist.frame.encode.ns_per_kb", float64(d)/kb)
		d, err := probes.do("dist.frame.decode", func() error {
			_, err := dist.DecodeFrame(framed)
			return err
		})
		l.set("dist.frame.decode.ns_per_kb", float64(d)/kb)
		return err
	})
}

// rpcRecorder is the http.RoundTripper handed to dist workers: it times
// and counts every exchange, the only view of the protocol the layer
// offers from outside.
type rpcRecorder struct {
	next http.RoundTripper
	root spanRef

	mu         sync.Mutex
	ms         []float64
	bytes      int64
	lastResult time.Time // when the last /v1/result exchange completed
}

// RoundTrip performs the exchange inside a span that ends when the
// response body has been read.
func (r *rpcRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := r.root.child("dist.rpc" + req.URL.Path)
	t0 := time.Now()
	sent := req.ContentLength
	resp, err := r.next.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &rpcBody{ReadCloser: resp.Body, done: func(n int64) {
		sp.end()
		now := time.Now()
		r.mu.Lock()
		defer r.mu.Unlock()
		r.ms = append(r.ms, ms(now.Sub(t0)))
		r.bytes += n
		if sent > 0 {
			r.bytes += sent
		}
		if req.URL.Path == "/v1/result" {
			r.lastResult = now
		}
	}}
	return resp, nil
}

// rpcBody counts a response body and reports when it is closed.
type rpcBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

// Read counts the bytes read.
func (b *rpcBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// Close closes the body and reports the exchange complete.
func (b *rpcBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// distWorkers is the number of dist workers: processes in grid run B,
// goroutines in the traced run.
const distWorkers = 2

// traceDist runs the grid through an in-process coordinator and two
// RunWorker goroutines over loopback, observed through the hooks the
// layer offers: the workers' HTTP client and their executor factory.
func (l *layerRun) traceDist(spec *experiment.Spec, want string, runWN time.Duration) {
	h := l.h
	l.probe("dist: coordinator + 2 workers over loopback", func() error {
		s := *spec
		s.Workers = h.nproc
		plan, err := experiment.BuildPlan(&s)
		if err != nil {
			return err
		}
		g, err := dist.NewGridCoordinator(plan, dist.Options{Now: time.Now, Seed: h.seed})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		root := l.tr.root("grid/dist", "dist.serve")
		rec := &rpcRecorder{next: http.DefaultTransport, root: root}
		var mu sync.Mutex
		var planMS []float64
		var execTotal time.Duration
		newExec := func(kind string, blob []byte) (dist.ExecFunc, error) {
			var exec dist.ExecFunc
			d, err := root.do("dist.worker_plan", func() error {
				var err error
				exec, err = dist.DefaultExec(kind, blob)
				return err
			})
			mu.Lock()
			planMS = append(planMS, ms(d))
			mu.Unlock()
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, payload []byte) ([]byte, error) {
				var out []byte
				d, err := root.do("dist.execute", func() error {
					var err error
					out, err = exec(ctx, payload)
					return err
				})
				mu.Lock()
				execTotal += d
				mu.Unlock()
				return out, err
			}, nil
		}
		workerErr := make(chan error, distWorkers)
		for i := 0; i < distWorkers; i++ {
			go func(i int) {
				workerErr <- dist.RunWorker(h.ctx, "http://"+ln.Addr().String(), dist.WorkerOptions{
					Client:  &http.Client{Transport: rec, Timeout: childTimeout},
					Seed:    h.seed + int64(i) + 1,
					NewExec: newExec,
				})
			}(i)
		}
		err = g.Serve(h.ctx, ln)
		returned := time.Now()
		serve := root.end()
		for i := 0; i < distWorkers; i++ {
			if werr := <-workerErr; werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		m, err := g.Manifest()
		if err != nil {
			return err
		}
		b, err := m.EncodeJSON()
		if err != nil {
			return err
		}
		if got := sha(string(b)); got != want {
			return fmt.Errorf("distributed manifest sha256 %s, want %s", got, want)
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		l.set("dist.rpc.count", float64(len(rec.ms)))
		l.set("dist.rpc.bytes", float64(rec.bytes))
		l.setDist("dist.rpc.p50_ms", median(rec.ms), rec.ms)
		l.setDist("dist.worker_plan.ms", median(planMS), planMS)
		l.set("dist.execute.total_ms", ms(execTotal))
		l.set("dist.serve.ms", ms(serve))
		l.set("dist.tail.ms", ms(returned.Sub(rec.lastResult)))
		l.set("dist.overhead_per_cell.ms", ms(serve-runWN)/float64(plan.Cells()))
		l.set("dist.over_inproc", ratio(serve, runWN))
		return nil
	})
}
