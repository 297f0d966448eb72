package main

import (
	"fmt"
	"runtime"
	"time"
)

// gridPolicy is one policy of the grid spec: its grammar name and the
// spelling that can appear in a metric name.
type gridPolicy struct{ spec, name string }

// gridPolicies are the 14 policies of benchmark/specs/grid.json, in spec
// order. A test holds this list to the spec file.
var gridPolicies = []gridPolicy{
	{"stp:1.4", "stp1.4"}, {"stp:1", "stp1"}, {"lru", "lru"}, {"fifo", "fifo"},
	{"saac", "saac"}, {"largest-first", "largest-first"}, {"smallest-first", "smallest-first"},
	{"random", "random"}, {"opt", "opt"}, {"arc", "arc"}, {"lruk:2", "lruk2"},
	{"gdsf", "gdsf"}, {"cost", "cost"}, {"stp-adapt", "stp-adapt"},
}

// perLayer is the per-layer metric table, in output order. Names are
// <layer>.<what>.<measure>; ns_per_rec and allocs_per_rec are per trace
// record, ns_per_access per replayed access, and wN stands for the
// tools' default worker count, one per CPU (nproc is in the result
// file). Per-layer metrics have no bound.
var perLayer = buildPerLayer()

// buildPerLayer assembles the table.
func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	t := []metricDef{
		lo("workload.generate.ns_per_rec", "ns"),
		lo("workload.generate.allocs_per_rec", "count"),
		lo("mss.replay.ns_per_rec", "ns"),

		lo("trace.v1.encode.ns_per_rec", "ns"),
		lo("trace.v1.decode.ns_per_rec", "ns"),
		lo("trace.b1.decode.ns_per_rec", "ns"),
		lo("trace.b1.bytes_per_rec", "B"),
		lo("trace.b2.open.ms", "ms"),
		lo("trace.b2.decode.ns_per_rec", "ns"),
		lo("trace.b2.decode.allocs_per_rec", "count"),
		lo("trace.b2.bytes_per_rec", "B"),
		lo("trace.b2.stream_wN.ns_per_rec", "ns"),
		hi("trace.b2.par_speedup", "ratio"),
		lo("trace.intern.ns_per_rec", "ns"),

		lo("core.accumulate.ns_per_rec", "ns"),
		lo("core.accumulate.allocs_per_rec", "count"),
		lo("core.partial.ns_per_rec", "ns"),
		lo("core.fold.ns_per_rec", "ns"),
		lo("core.report.ms", "ms"),
		lo("core.render.ms", "ms"),
		lo("core.render.periodicity.ms", "ms"),
		lo("core.render.rest.ms", "ms"),
		lo("core.slice.ms", "ms"),
		lo("core.stream_w1.ms", "ms"),
		lo("core.stream_wN.ms", "ms"),
		lo("core.b2seek_w1.ms", "ms"),
		lo("core.b2seek_wN.ms", "ms"),
		lo("core.stream_over_slice", "ratio"),
		hi("core.stream_par_speedup", "ratio"),
		hi("core.b2seek_par_speedup", "ratio"),
		lo("core.snapshot.save.ms", "ms"),
		lo("core.snapshot.merge.ms", "ms"),
		lo("core.snapshot.bytes_per_rec", "B"),

		lo("migration.accesses.ns_per_rec", "ns"),
	}
	for _, p := range gridPolicies {
		t = append(t, lo("migration.replay.ns_per_access."+p.name, "ns"))
	}
	t = append(t,
		lo("migration.replay.allocs_per_replay", "count"),
		lo("migration.coalesce.ms", "ms"),

		lo("experiment.plan.ms", "ms"),
		lo("experiment.cell.p50_ms", "ms"),
		lo("experiment.cell.max_ms", "ms"),
		lo("experiment.run_w1.ms", "ms"),
		lo("experiment.run_wN.ms", "ms"),
		hi("experiment.par_speedup", "ratio"),
		lo("experiment.manifest.ms", "ms"),

		lo("dist.rpc.count", "count"),
		lo("dist.rpc.bytes", "B"),
		lo("dist.rpc.p50_ms", "ms"),
		lo("dist.worker_plan.ms", "ms"),
		lo("dist.execute.total_ms", "ms"),
		lo("dist.frame.encode.ns_per_kb", "ns"),
		lo("dist.frame.decode.ns_per_kb", "ns"),
		lo("dist.serve.ms", "ms"),
		lo("dist.tail.ms", "ms"),
		lo("dist.overhead_per_cell.ms", "ms"),
		lo("dist.over_inproc", "ratio"),

		lo("serve.decode.ns_per_rec", "ns"),
		lo("serve.decode.allocs_per_rec", "count"),
		lo("serve.ingest.ns_per_rec", "ns"),
		lo("serve.ingest.allocs_per_rec", "count"),
		lo("serve.http.us_per_batch", "us"),
		lo("serve.fold.ms", "ms"),
		lo("serve.report.ms", "ms"),
		lo("serve.segments", "count"),
		lo("serve.files", "count"),
		lo("serve.file_query.ns", "ns"),
		lo("serve.checkpoint.encode.ms", "ms"),
		lo("serve.checkpoint.bytes", "B"),
		lo("serve.restore.ms", "ms"),
	)
	for _, w := range workloadDefs {
		t = append(t, lo(w.Name+".unattributed_share", "ratio"))
	}
	for _, w := range workloadDefs {
		t = append(t, lo(w.Name+".process_overhead_ms", "ms"))
	}
	return t
}

// layerRun is one traced run's state: the tracer, the measured values,
// and the probe accounting the result reports as attempted and failed.
type layerRun struct {
	h  *harness
	tr *tracer

	vals      map[string]metric
	info      []metric
	attempted int
	failed    int
}

// set records one per-layer value.
func (l *layerRun) set(name string, v float64) {
	l.vals[name] = single(name, "", v)
}

// setDist records a per-layer value that summarises a distribution.
func (l *layerRun) setDist(name string, value float64, samples []float64) {
	m := describe(name, "", samples)
	m.Value = value
	l.vals[name] = m
}

// probe runs one measurement step and counts it; a failed probe leaves
// its metrics unset, which fails the run when the table is emitted.
func (l *layerRun) probe(what string, fn func() error) bool {
	l.attempted++
	if err := l.h.ctx.Err(); err != nil {
		l.failed++
		return false
	}
	l.h.logf("traced: %s", what)
	if err := fn(); err != nil {
		l.failed++
		l.h.logf("traced: %s failed: %v", what, err)
		return false
	}
	return true
}

// emit returns every per-layer metric in table order, with the table's
// units, or an error naming the metrics no probe produced.
func (l *layerRun) emit() ([]metric, error) {
	var out []metric
	var missing []string
	for _, d := range perLayer {
		m, ok := l.vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		m.Unit = d.Unit
		out = append(out, m)
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("per-layer metrics not measured: %v", missing)
	}
	return out, nil
}

// mallocsDuring runs fn on the calling goroutine and returns how many
// heap objects were allocated meanwhile. It is only meaningful around
// single-goroutine calls: MemStats is process-wide.
func mallocsDuring(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// perRec divides a duration over n records, in nanoseconds.
func perRec(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// ratio is a/b, zero when b is zero.
func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
