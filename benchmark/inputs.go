package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"filemig"
	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/experiment"
	"filemig/internal/mss"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

// Everything the programs under test read is generated here from the
// seed: trace scales, the grid spec's seed, batch arrival order and the
// query path sample. The programs only ever see the generated inputs.

// sizes fixes how much work each workload's inputs hold. Both sides of a
// comparison must use the same sizes; the defaults are the benchmark.
type sizes struct {
	// PipeScale and ScanScale are tracegen -scale for pipe-report and
	// for the scan-large / migd-live trace.
	PipeScale, ScanScale float64
	// Days is the trace calendar length, tracegen -days.
	Days int
	// GridScale and GridDays override the grid spec's scale and days
	// when non-zero.
	GridScale float64
	GridDays  int
	// BatchRecords is the least number of records per ingest batch.
	BatchRecords int
	// Warmup enables the discarded warm-up rep on the workloads that
	// have one.
	Warmup bool
}

// defaultSizes are the benchmark's published input sizes.
func defaultSizes() sizes {
	return sizes{
		PipeScale:    0.02,
		ScanScale:    0.2,
		Days:         workload.PaperSpanDays,
		BatchRecords: 100,
		Warmup:       true,
	}
}

// analysisOptions are the options every trace-file analysis path of the
// tools uses (cmd/mssanalyze, and migd with its default -dedup).
var analysisOptions = core.Options{DedupWindow: workload.DedupWindow}

// scanIDs are the artefacts scan-large requests: every data-driven one
// except periodicity, whose O(n²) periodogram would drown the decode and
// fold work the workload exists to measure.
var scanIDs = []string{"table3", "table4", "figure3", "figure4", "figure5", "figure6",
	"figure7", "figure8", "figure9", "figure10", "figure11", "figure12"}

// renderExperiments prints experiments the way mssanalyze does: the
// given ids, or every registered experiment for nil.
func renderExperiments(p *filemig.Pipeline, ids []string) (string, error) {
	var exps []filemig.Experiment
	if ids == nil {
		exps = filemig.Experiments()
	}
	for _, id := range ids {
		e, ok := filemig.FindExperiment(id)
		if !ok {
			return "", fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	var b strings.Builder
	for _, e := range exps {
		fmt.Fprintf(&b, "== %s ==\n%s\n", e.Title, e.Render(p))
	}
	return b.String(), nil
}

// sliceReport analyses records on the slice path, the reference every
// other path must reproduce byte for byte.
func sliceReport(recs []trace.Record) *core.Report {
	a := core.New(analysisOptions)
	a.AddAll(recs)
	return a.Report()
}

// pipeConfig is the generator configuration of tracegen -scale -seed
// -days.
func (h *harness) pipeConfig() workload.Config {
	cfg := workload.DefaultConfig(h.sizes.PipeScale, h.seed)
	cfg.Days = h.sizes.Days
	return cfg
}

// pipeReference renders in-process what `tracegen -sim | mssanalyze -i -
// -all` must print: generate, simulate, cross the ASCII wire (which
// quantises instants to seconds), analyse on the slice path, render all.
func (h *harness) pipeReference() (string, int, error) {
	res, err := workload.Generate(h.pipeConfig())
	if err != nil {
		return "", 0, err
	}
	recs, err := mss.NewSimulator(mss.DefaultConfig(h.seed)).Replay(res.Records)
	if err != nil {
		return "", 0, err
	}
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, recs, trace.FormatASCII); err != nil {
		return "", 0, err
	}
	wire, err := trace.ReadAll(&buf)
	if err != nil {
		return "", 0, err
	}
	text, err := renderExperiments(pipelineOf(wire), nil)
	return text, len(wire), err
}

// genScanTrace runs tracegen to write the scan-large / migd-live b2
// trace and returns its path.
func (h *harness) genScanTrace() (string, error) {
	path := filepath.Join(h.tmp, "scan.b2")
	c, err := h.start("setup-tracegen", "tracegen", []string{
		"-scale", fmt.Sprint(h.sizes.ScanScale), "-seed", fmt.Sprint(h.seed),
		"-days", fmt.Sprint(h.sizes.Days), "-format", "b2", "-o", path}, nil, io.Discard)
	if err != nil {
		return "", err
	}
	if _, err := c.wait(); err != nil {
		return "", err
	}
	return path, nil
}

// readTrace decodes a whole trace file.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAll(f)
}

// gridSpec loads benchmark/specs/grid.json and stamps the harness seed
// (and the size overrides) into it.
func (h *harness) gridSpec() (*experiment.Spec, error) {
	spec, err := experiment.ParseFile(filepath.Join(h.root, "benchmark", "specs", "grid.json"))
	if err != nil {
		return nil, err
	}
	spec.Seed = h.seed
	if h.sizes.GridScale != 0 {
		spec.Scale = h.sizes.GridScale
	}
	if h.sizes.GridDays != 0 {
		spec.Days = h.sizes.GridDays
	}
	return spec, nil
}

// writeGridSpec writes the seeded spec where migexp can read it.
func (h *harness) writeGridSpec(spec *experiment.Spec) (string, error) {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(h.tmp, "grid.json")
	return path, os.WriteFile(path, b, 0o644)
}

// cutBatches splits records into contiguous ingest batches of at least n
// records, extending each until the next record starts at a later
// instant: records sharing an instant never straddle two batches, which
// is the condition under which migd's out-of-order fold is exact.
func cutBatches(recs []trace.Record, n int) [][]trace.Record {
	var out [][]trace.Record
	for i := 0; i < len(recs); {
		j := i + n
		if j > len(recs) {
			j = len(recs)
		}
		for j < len(recs) && recs[j].Start.Equal(recs[j-1].Start) {
			j++
		}
		out = append(out, recs[i:j])
		i = j
	}
	return out
}

// frameBatch encodes one batch as the POST /v1/ingest/batch body: a b1
// trace stream inside a dist frame.
func frameBatch(recs []trace.Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteAllFormat(&buf, recs, trace.FormatBinary); err != nil {
		return nil, err
	}
	return dist.EncodeFrame(buf.Bytes()), nil
}

// shuffleWindows returns a permutation of 0..n-1 that shuffles each
// consecutive window of the given width: batches arrive out of order,
// but never far out of order.
func shuffleWindows(n, window int, rng *rand.Rand) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for lo := 0; lo < n; lo += window {
		hi := lo + window
		if hi > n {
			hi = n
		}
		w := order[lo:hi]
		rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
	}
	return order
}

// migdBatch is one ingest batch in the order it will be sent.
type migdBatch struct {
	frame   []byte
	records int
	// paths are MSS paths of good records in the batch: what the reader
	// may query once the batch is acked.
	paths []string
}

// migdInputs is everything one migd-live rep sends and expects.
type migdInputs struct {
	batches []migdBatch
	records int
	bytes   int
	// now is the instant every /v1/file query pins, just past the trace.
	now string
	// wantReport is the sha256 of the report /v1/report must return.
	wantReport string
}

// migd-live's traffic shape.
const (
	// shuffleWindow is the window of consecutive batches inside which
	// arrival order is permuted.
	shuffleWindow = 8
	// queryRate is the open-loop reader's request rate per second.
	queryRate = 200
	// pathsPerBatch is how many query paths are sampled from each batch.
	pathsPerBatch = 4
)

// buildMigdInputs frames the trace as shuffled ingest batches and
// renders the report the daemon must reproduce.
func (h *harness) buildMigdInputs(recs []trace.Record) (*migdInputs, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	rng := rand.New(rand.NewSource(h.seed))
	cut := cutBatches(recs, h.sizes.BatchRecords)
	in := &migdInputs{
		records:    len(recs),
		now:        recs[len(recs)-1].Start.Add(24 * time.Hour).UTC().Format(time.RFC3339),
		wantReport: sha(core.RenderReport(sliceReport(recs))),
	}
	for _, i := range shuffleWindows(len(cut), shuffleWindow, rng) {
		frame, err := frameBatch(cut[i])
		if err != nil {
			return nil, err
		}
		b := migdBatch{frame: frame, records: len(cut[i])}
		for k := 0; k < pathsPerBatch; k++ {
			if r := &cut[i][rng.Intn(len(cut[i]))]; r.OK() {
				b.paths = append(b.paths, r.MSSPath)
			}
		}
		in.bytes += len(frame)
		in.batches = append(in.batches, b)
	}
	return in, nil
}

// sha is the hex sha256 of a string.
func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// pipelineOf analyses records on the slice path and wraps them as the
// pipeline the experiment renderers take.
func pipelineOf(recs []trace.Record) *filemig.Pipeline {
	return &filemig.Pipeline{Records: recs, Report: sliceReport(recs)}
}

// gridReference runs the spec in-process and returns the manifest bytes
// `migexp run -json` must print, with the number of cells.
func gridReference(ctx context.Context, spec *experiment.Spec, workers int) ([]byte, int, error) {
	s := *spec
	s.Workers = workers
	plan, err := experiment.BuildPlan(&s)
	if err != nil {
		return nil, 0, err
	}
	m, err := experiment.RunPlan(ctx, plan)
	if err != nil {
		return nil, 0, err
	}
	b, err := m.EncodeJSON()
	return b, plan.Cells(), err
}
