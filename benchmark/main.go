// Command benchmark is the repository's end-to-end benchmark with
// per-layer attribution. One command builds the cmd/ tools, generates
// every input from a seed, runs the four workloads the way a user runs
// them, checks every output, and prints each end-to-end metric by name
// with its unit, sample count and quartiles:
//
//	sh benchmark/run.sh -seed 1993 -out <dir>         # from the repository root
//	go run . -seed 1993 -out <dir>                    # from benchmark/
//	go run . -workload scan-large                     # one workload
//	go run . -trace 1                                 # traced in-process run: per-layer metrics, spans.json
//	go run . -compare a/result.json b/result.json     # judge B against A by the metric bounds
//
// With -workload the last line of standard output is the one-line JSON
// object BENCHMARK.json's contract asks for. See README.md for the
// workload and metric tables.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == launcherArg {
		os.Exit(launch(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1993, "seed for every generated input")
	out := fs.String("out", "", "output directory (default .bench_build/out under the repository root)")
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default all)")
	seconds := fs.Int("seconds", 10, "measuring window per workload, after setup and warm-up")
	traced := fs.Int("trace", 0, "1 runs the traced in-process mode: per-layer metrics and spans.json")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -help")
		return 2
	}
	if _, ok := findWorkload(*workload); *workload != "" && !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(ctx, *out, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	h.seed = *seed
	h.seconds = time.Duration(*seconds) * time.Second
	// Every exit path, SIGINT included, reaps the children and removes
	// the temp directory.
	defer h.cleanup()

	res := &result{
		Schema: schemaName, Mode: "end_to_end", Seed: h.seed, Seconds: *seconds, Nproc: h.nproc,
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	build, err := h.buildTools()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res.BuildS = build.Seconds()

	if *traced == 1 {
		return h.traced(res, *workload != "", stdout, stderr)
	}
	return h.endToEnd(res, *workload, stdout, stderr)
}

// workloadNames lists the workload names in run order.
func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return names
}

// newHarness locates the repository, creates the output directories and
// sizes the harness to the machine.
func newHarness(ctx context.Context, out string, progress io.Writer) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if out == "" {
		out = filepath.Join(root, ".bench_build", "out")
	}
	if out, err = filepath.Abs(out); err != nil {
		return nil, err
	}
	h := &harness{
		root: root, out: out,
		bin:      filepath.Join(out, "bin"),
		logs:     filepath.Join(out, "logs"),
		nproc:    runtime.NumCPU(),
		sizes:    defaultSizes(),
		progress: progress,
		ctx:      ctx,
	}
	if err := os.MkdirAll(h.bin, 0o755); err != nil {
		return nil, err
	}
	if h.tmp, err = os.MkdirTemp(out, "tmp-"); err != nil {
		return nil, err
	}
	return h, nil
}

// cleanup reaps every child and removes the temp directory.
func (h *harness) cleanup() {
	h.procs.killAll()
	os.RemoveAll(h.tmp)
}

// findRoot returns the repository root: the working directory when run
// from there (as run.sh does), its parent when run from benchmark/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "benchmark", "specs", "grid.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "migd")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from benchmark/: cmd/ and benchmark/specs not found")
}

// endToEnd runs the selected workloads untraced, reports, and returns
// the exit code.
func (h *harness) endToEnd(res *result, only string, stdout, stderr io.Writer) int {
	for _, def := range workloadDefs {
		if only != "" && def.Name != only {
			continue
		}
		h.logf("workload %s (seed %d, window %v)", def.Name, h.seed, h.seconds)
		w, err := h.runWorkload(def)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.Name, err)
			return exitCode(h.ctx)
		}
		res.Workloads = append(res.Workloads, *w)
	}
	return h.report(res, only != "", stdout, stderr)
}

// report prints an end-to-end result, writes result.json, prints the
// contract line when one workload was asked for, and returns the exit
// code: non-zero when any output check or operation failed.
func (h *harness) report(res *result, contract bool, stdout, stderr io.Writer) int {
	res.Correct = true
	for _, w := range res.Workloads {
		res.Correct = res.Correct && w.Correct && w.Failed == 0
	}
	printResult(stdout, res)
	if err := writeJSON(filepath.Join(h.out, "result.json"), res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if contract {
		w := res.Workloads[0]
		printContract(stdout, w.Correct && w.Failed == 0, w.Attempted, w.Failed, w.Metrics, common)
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: output checks or operations failed; logs in %s\n", h.logs)
		return 1
	}
	return 0
}

// runWorkload dispatches one workload.
func (h *harness) runWorkload(def workloadDef) (*workloadResult, error) {
	switch def.Name {
	case "pipe-report":
		return h.runPipeReport(def)
	case "scan-large":
		return h.runScanLarge(def)
	case "grid":
		return h.runGrid(def)
	case "migd-live":
		return h.runMigdLive(def)
	}
	return nil, fmt.Errorf("unknown workload %q", def.Name)
}

// traced runs the traced mode, prints and writes the per-layer result
// and spans.json, and returns the exit code.
func (h *harness) traced(res *result, contract bool, stdout, stderr io.Writer) int {
	res.Mode = "per_layer"
	l, runErr := h.runTraced()
	res.Attempted, res.Failed = l.attempted, l.failed
	layers, emitErr := l.emit()
	res.Layers = layers
	res.Correct = runErr == nil && emitErr == nil && l.failed == 0
	res.Info = append(l.info, l.layerShares()...)
	printResult(stdout, res)
	if err := h.writeLayers(l, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := errors.Join(runErr, emitErr); err != nil {
		fmt.Fprintf(stderr, "benchmark: traced run incomplete: %v; logs in %s\n", err, h.logs)
		return exitCode(h.ctx)
	}
	if contract {
		var names []string
		for _, d := range perLayer {
			names = append(names, d.Name)
		}
		printContract(stdout, res.Correct, res.Attempted, res.Failed, layers, names)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// layerShares reports, per workload, how its traced whole path's time
// splits over the layers: the self time of each layer's spans.
func (l *layerRun) layerShares() []metric {
	spans := l.tr.snapshot()
	var out []metric
	for _, s := range spans {
		if s.Parent != 0 || !strings.HasSuffix(s.Trace, "/0") {
			continue
		}
		byLayer := layerSelfTimes(spans, s.Trace, s.ID)
		layers := make([]string, 0, len(byLayer))
		for name := range byLayer {
			layers = append(layers, name)
		}
		sort.Strings(layers)
		for _, name := range layers {
			out = append(out, single(s.Name+".self_ms."+name, "ms", ms(byLayer[name])))
		}
	}
	return out
}

// exitCode is 130 after an interrupt, 1 otherwise.
func exitCode(ctx context.Context) int {
	if ctx.Err() != nil {
		return 130
	}
	return 1
}

// printResult prints every metric by name with its unit, sample count
// and quartiles.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "benchmark %s: mode %s, seed %d, window %ds, nproc %d, %s %s, build_s %.3f\n",
		res.Schema, res.Mode, res.Seed, res.Seconds, res.Nproc, res.GoVersion, res.Platform, res.BuildS)
	for _, wl := range res.Workloads {
		fmt.Fprintf(w, "\n== %s: %d reps, %d operations attempted, %d failed, correct %v ==\n",
			wl.Name, wl.Reps, wl.Attempted, wl.Failed, wl.Correct)
		for _, group := range [][]metric{wl.Inputs, wl.Metrics, wl.Info} {
			for _, m := range group {
				fmt.Fprintln(w, m)
			}
		}
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "\n== per-layer: %d probes attempted, %d failed ==\n", res.Attempted, res.Failed)
		for _, group := range [][]metric{res.Layers, res.Info} {
			for _, m := range group {
				fmt.Fprintln(w, m)
			}
		}
	}
}

// printContract prints the one-line JSON object the acceptance driver
// reads: exactly the named metrics, each with its value and unit.
func printContract(w io.Writer, correct bool, attempted, failed int, ms []metric, names []string) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, map[string]val{}}
	for _, name := range names {
		for _, m := range ms {
			if m.Name == name {
				line.Metrics[name] = val{m.Value, m.Unit}
			}
		}
	}
	b, _ := json.Marshal(line) // a struct of plain values cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

// writeJSON writes v as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
