package main

import "fmt"

// metricDef names one metric: what it is called, its unit, which way is
// better, and — for end-to-end metrics — the share of the baseline's
// median by which it may worsen before -compare calls it a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is the end-to-end metric table, in output order. Not every
// metric applies to every workload (workloadDefs says which); the ones
// that apply to all four are also listed in BENCHMARK.json, where the
// acceptance driver gates them.
//
// The timing bounds are 25 %, not the 10-15 % a quiet machine would
// allow: on the shared 2-core box this benchmark was defined on, the same
// binary's CPU-bound run times drift by 15-30 % over minutes (README,
// "Noise"), and a bound below the same-code spread is a flaky gate.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"dist_wall_s", "s", "lower", 0.25},
	{"ingest_recs_per_s", "1/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p99_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"report_ms", "ms", "lower", 0.25},
	{"restore_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// common lists the end-to-end metrics every workload reports.
var common = []string{"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}

// workloadDef describes one workload: its name, why it exists, and which
// end-to-end metrics it reports.
type workloadDef struct {
	Name    string
	Why     string
	Metrics []string
}

// workloadDefs is the workload table, in run order.
var workloadDefs = []workloadDef{
	{
		Name:    "pipe-report",
		Why:     "tracegen -sim | mssanalyze -all over a real pipe: generator, simulator and full render (periodogram) dominate; decode and accumulate do almost nothing",
		Metrics: common,
	},
	{
		Name:    "scan-large",
		Why:     "mssanalyze -stream over a pre-generated 25 MB b2 file: decode, interning, accumulate and shard fold dominate; generator unused, render small - the mirror of pipe-report",
		Metrics: common,
	},
	{
		Name:    "grid",
		Why:     "168-cell migexp policy grid, in-process and again through a coordinator plus two worker processes: the same replays with and without the dist fan-out",
		Metrics: append(append([]string(nil), common...), "dist_wall_s"),
	},
	{
		Name: "migd-live",
		Why:  "fresh migd per rep under mixed traffic - closed-loop writers POSTing 100-record framed batches out of order beside a 200/s open-loop reader - then report, checkpoint, kill, restore",
		Metrics: append(append([]string(nil), common...), "ingest_recs_per_s", "ingest_p50_ms",
			"ingest_p99_ms", "query_p50_ms", "query_p99_ms", "report_ms", "restore_ms"),
	},
}

// findWorkload returns the named workload's definition.
func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one measured value as the result file carries it: the
// reported value with the sample count and quartiles behind it. Runs
// holds the per-rep values — the "runs" -compare judges spread and
// separation by. For a pooled metric (a percentile over every request of
// every rep) Value, N and the quartiles describe the pool and Runs the
// same percentile of each rep alone.
type metric struct {
	Name  string    `json:"name"`
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	N     int       `json:"n"`
	Min   float64   `json:"min"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Max   float64   `json:"max"`
	Runs  []float64 `json:"runs,omitempty"`
}

// perRep builds a metric whose value is the median of its per-rep values.
func perRep(name, unit string, runs []float64) metric {
	m := describe(name, unit, runs)
	m.Value = median(runs)
	m.Runs = runs
	return m
}

// pooled builds a percentile metric over samples pooled across reps;
// reps holds each rep's own samples.
func pooled(name, unit string, p float64, reps [][]float64) metric {
	var all []float64
	runs := make([]float64, len(reps))
	for i, r := range reps {
		all = append(all, r...)
		runs[i] = percentile(r, p)
	}
	m := describe(name, unit, all)
	m.Value = percentile(all, p)
	m.Runs = runs
	return m
}

// single builds a metric from one measurement.
func single(name, unit string, v float64) metric {
	m := describe(name, unit, []float64{v})
	m.Value = v
	return m
}

// describe fills a metric's sample count, extremes and quartiles.
func describe(name, unit string, v []float64) metric {
	m := metric{Name: name, Unit: unit, N: len(v)}
	if len(v) == 0 {
		return m
	}
	s := sorted(v)
	m.Min, m.Max = s[0], s[len(s)-1]
	m.Q1, _, m.Q3 = quartiles(s)
	return m
}

// String renders the metric as one aligned report line.
func (m metric) String() string {
	return fmt.Sprintf("%-44s %14.6g %-6s n=%-6d q1=%-12.6g q3=%-12.6g min=%-12.6g max=%.6g",
		m.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3, m.Min, m.Max)
}

// workloadResult is one workload's block of the result file.
type workloadResult struct {
	Name string `json:"name"`
	// Reps counts measured repetitions (the discarded warm-up excluded).
	Reps int `json:"reps"`
	// Attempted and Failed count operations: one per child-process run
	// and output check, plus one per HTTP request on migd-live. A rep
	// whose check fails, a non-2xx answer, a transport error and a
	// timed-out child are all failed operations.
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`
	// Inputs records what the seed generated: record and byte counts,
	// client counts, rates.
	Inputs []metric `json:"inputs,omitempty"`
	// Metrics are the workload's end-to-end metrics, in table order.
	Metrics []metric `json:"metrics"`
	// Info are informational numbers that gate nothing.
	Info []metric `json:"info,omitempty"`
}

// get returns the named end-to-end metric of the workload.
func (w *workloadResult) get(name string) (metric, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// result is the file a run writes: result.json for the end-to-end mode,
// layers.json for the traced mode.
type result struct {
	Schema string `json:"schema"`
	// Mode is "end_to_end" or "per_layer".
	Mode string `json:"mode"`
	// Claim is always null: the benchmark measures, it claims nothing.
	Claim     *string `json:"claim"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Nproc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Platform  string  `json:"platform"`
	// BuildS is the go build of the cmd/ tools — informational, since
	// compile-cache state is not a property of the program.
	BuildS    float64          `json:"build_s"`
	Workloads []workloadResult `json:"workloads,omitempty"`
	// Layers are the per-layer metrics of a traced run, in table order.
	Layers []metric `json:"layers,omitempty"`
	// Info are a traced run's informational numbers: each whole path's
	// in-process time, tracing overhead, and self time per layer.
	Info []metric `json:"info,omitempty"`
	// Attempted, Failed and Correct summarise a traced run's probes.
	Attempted int  `json:"attempted,omitempty"`
	Failed    int  `json:"failed,omitempty"`
	Correct   bool `json:"correct"`
}

// schemaName identifies the result file format.
const schemaName = "filemig-benchmark/1"
