package filemig

// Smoke tests for the command-line tools: build each binary once and run
// it on a tiny workload, verifying the end-user surface (flags, stdin
// piping, output shape). Skipped under -short.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"filemig/internal/experiment"
	"filemig/internal/trace"
)

func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping cmd smoke tests in -short mode")
	}
	dir := t.TempDir()
	for _, tool := range []string{"tracegen", "mssanalyze", "msssim", "migsim", "migexp"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func TestCmdPipelines(t *testing.T) {
	bin := buildTools(t)
	run := func(name string, stdin []byte, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		if stdin != nil {
			cmd.Stdin = bytes.NewReader(stdin)
		}
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, stderr.String())
		}
		return stdout.Bytes()
	}

	// tracegen: generate a tiny simulated trace.
	traceTxt := run("tracegen", nil, "-scale", "0.001", "-seed", "3", "-days", "60", "-sim")
	if !bytes.HasPrefix(traceTxt, []byte("#filemig-trace")) {
		t.Fatalf("tracegen output missing header: %.60s", traceTxt)
	}
	lines := bytes.Count(traceTxt, []byte("\n"))
	if lines < 100 {
		t.Fatalf("tracegen produced only %d lines", lines)
	}

	// tracegen -sim streams generator → simulator → encoder; its bytes
	// are pinned to what the materializing parent of that change wrote
	// (testdata/ci-sim.v1.sha256, which CI checks the same way).
	pinned, err := os.ReadFile(filepath.Join("testdata", "ci-sim.v1.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(run("tracegen", nil, "-scale", "0.005", "-seed", "7", "-sim"))
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(pinned)) {
		t.Errorf("tracegen -scale 0.005 -seed 7 -sim sha256 = %s, pinned %s", got, strings.TrimSpace(string(pinned)))
	}

	// tracegen -raw: verbose log form.
	rawTxt := run("tracegen", nil, "-scale", "0.001", "-seed", "3", "-days", "30", "-raw")
	if !bytes.Contains(rawTxt, []byte("MSCP: seq=")) {
		t.Error("raw log missing MSCP lines")
	}

	// mssanalyze over the piped trace.
	out := string(run("mssanalyze", traceTxt, "-i", "-", "-id", "table3", "-id", "figure8"))
	for _, want := range []string{"Table 3", "References", "Figure 8", "never read"} {
		if !strings.Contains(out, want) {
			t.Errorf("mssanalyze output missing %q", want)
		}
	}

	// msssim with write-behind over the same trace.
	out = string(run("msssim", traceTxt, "-i", "-", "-write-behind"))
	for _, want := range []string{"write-behind=true", "mscp", "operator", "tape mounts"} {
		if !strings.Contains(out, want) {
			t.Errorf("msssim output missing %q", want)
		}
	}

	// migsim policy comparison and coalescing over the trace.
	out = string(run("migsim", traceTxt, "-i", "-", "-capacity", "0.05"))
	for _, want := range []string{"policy comparison", "OPT", "STP^1.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("migsim output missing %q", want)
		}
	}
	out = string(run("migsim", traceTxt, "-i", "-", "-coalesce"))
	if !strings.Contains(out, "8h0m0s") {
		t.Errorf("migsim coalesce output missing 8h row:\n%s", out)
	}

	// tracegen -format binary, then every consumer auto-detects it.
	traceBin := run("tracegen", nil, "-scale", "0.001", "-seed", "3", "-days", "60", "-format", "binary")
	if !bytes.HasPrefix(traceBin, []byte("#filemig-trace b1")) {
		t.Fatalf("binary tracegen output missing b1 header: %.40q", traceBin)
	}
	if len(traceBin) >= len(run("tracegen", nil, "-scale", "0.001", "-seed", "3", "-days", "60")) {
		t.Error("binary encoding not smaller than ascii")
	}
	fromBin := string(run("mssanalyze", traceBin, "-i", "-", "-id", "table4"))
	if !strings.Contains(fromBin, "Number of files") {
		t.Errorf("mssanalyze could not auto-detect binary input:\n%s", fromBin)
	}
	out = string(run("msssim", traceBin, "-i", "-", "-format", "binary"))
	if !strings.Contains(out, "tape mounts") {
		t.Errorf("msssim -format binary failed:\n%s", out)
	}

	// The same workload as b2 on a pipe takes the block index at any
	// worker count and must match the b1 record loop byte for byte.
	traceB2 := run("tracegen", nil, "-scale", "0.001", "-seed", "3", "-days", "60", "-format", "b2")
	slice := string(run("mssanalyze", traceBin, "-i", "-", "-id", "table3", "-id", "figure8"))
	indexed := string(run("mssanalyze", traceB2, "-i", "-", "-workers", "3",
		"-shard-days", "7", "-id", "table3", "-id", "figure8"))
	if slice != indexed {
		t.Errorf("b2 index path differs from the b1 record loop:\n--- b1 ---\n%s\n--- b2 ---\n%s",
			slice, indexed)
	}
}

// TestMigsimPresets pins migsim's three grid modes to the experiment
// engine they run on. Over one trace file, the default comparison
// prints exactly the manifest cells of the equivalent migexp spec, best
// read miss ratio first; -sweep prints the STP^1.4 row over the spec's
// default capacities; -stp-sweep prints one row per exponent and names
// the first lowest as the best.
func TestMigsimPresets(t *testing.T) {
	bin := buildTools(t)
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(filepath.Join(bin, name), args...).Output()
		if err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return string(out)
	}
	dir := t.TempDir()
	tr := filepath.Join(dir, "trace.v1")
	run("tracegen", "-scale", "0.002", "-seed", "7", "-days", "120", "-o", tr)
	// manifest runs migexp on a spec over tr and returns its rows.
	manifest := func(fields string) []experiment.PolicyGrid {
		t.Helper()
		spec := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(spec, []byte(`{"name": "migsim", "trace": `+strconv.Quote(tr)+`, `+fields+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		var m ExperimentManifest
		if err := json.Unmarshal([]byte(run("migexp", "run", spec, "-json")), &m); err != nil {
			t.Fatal(err)
		}
		return m.Scenarios[0].Policies
	}
	// rows returns the table lines after the header line starting head.
	rows := func(out, head string) []string {
		_, table, ok := strings.Cut(out, "\n"+head)
		if !ok {
			t.Fatalf("no %q table in:\n%s", head, out)
		}
		lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
		return lines[1:]
	}

	cells := map[string]experiment.Cell{}
	for _, row := range manifest(`"policies": ["stp:1.4", "stp:1", "lru", "saac", "fifo", "largest-first", ` +
		`"smallest-first", "random", "opt"], "capacities": [0.05]`) {
		cells[row.Policy] = row.Cells[0]
	}
	got := rows(run("migsim", "-i", tr, "-capacity", "0.05"), "policy   ")
	if len(got) != len(cells) {
		t.Fatalf("migsim compares %d policies, the spec %d", len(got), len(cells))
	}
	prev := 0.0
	for _, line := range got {
		name := strings.Fields(line)[0]
		c, ok := cells[name]
		if want := fmt.Sprintf("%-16s %9.2f%% %11.2f%% %12d %14.1f", name, 100*c.MissRatio,
			100*c.ByteMissRatio, c.Evictions, c.PersonMinutesPerDay); !ok || line != want {
			t.Errorf("migsim row %q, manifest cell %q", line, want)
		}
		if c.MissRatio < prev {
			t.Errorf("%s (%.4f) ranked below a worse policy (%.4f)", name, c.MissRatio, prev)
		}
		prev = c.MissRatio
	}

	sweep := manifest(`"policies": ["stp:1.4"]`)[0].Cells
	got = rows(run("migsim", "-i", tr, "-sweep"), "capacity   ")
	if len(got) != len(sweep) || len(sweep) != 6 {
		t.Fatalf("migsim -sweep prints %d capacities, the spec's defaults are %d", len(got), len(sweep))
	}
	for i, c := range sweep {
		if want := fmt.Sprintf("%10.2f%% %9.2f%% %11.2f%%", 100*c.CapacityFraction, 100*c.MissRatio,
			100*c.ByteMissRatio); got[i] != want {
			t.Errorf("migsim -sweep row %q, manifest cell %q", got[i], want)
		}
	}

	out := run("migsim", "-i", tr, "-stp-sweep")
	got = rows(out, "exponent   ")
	best, bestMiss := "", 101.0
	for _, line := range got[:len(got)-1] {
		f := strings.Fields(line)
		miss, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if miss < bestMiss {
			best, bestMiss = strings.TrimPrefix(f[0], "STP^"), miss
		}
	}
	if want := fmt.Sprintf("best exponent: %s (%.2f%% miss)", best, bestMiss); len(got) != 7 || got[6] != want {
		t.Errorf("migsim -stp-sweep: want 6 exponents and %q:\n%s", want, out)
	}
}

// TestMssanalyzeB2Golden is the CLI acceptance gate for the b2 block
// format: the committed testdata/mini.b2 fixture (tracegen -scale
// 0.002 -seed 3 -days 120 -format b2) must analyse through its block
// index — the path mssanalyze takes for any b2 input — to exactly the
// committed golden report. The same file at other worker counts and
// shard widths, with -stream (which changes nothing for a trace input),
// with -format b2 forced, and on a pipe must render the same bytes, and
// so must the sequential path over a b1 re-encoding of its records.
// Regenerate with UPDATE_B2_GOLDEN=1.
func TestMssanalyzeB2Golden(t *testing.T) {
	bin := buildTools(t)
	run := func(name string, stdin []byte, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		if stdin != nil {
			cmd.Stdin = bytes.NewReader(stdin)
		}
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, stderr.String())
		}
		return stdout.Bytes()
	}

	fixture := filepath.Join("testdata", "mini.b2")
	raw, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("#filemig-trace b2")) {
		t.Fatalf("fixture missing b2 header: %.40q", raw)
	}
	recs, err := trace.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var b1 bytes.Buffer
	if err := trace.WriteAllFormat(&b1, recs, trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	b1Path := filepath.Join(t.TempDir(), "mini.b1")
	if err := os.WriteFile(b1Path, b1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	ids := []string{"-id", "table3", "-id", "table4", "-id", "figure8"}
	indexed := run("mssanalyze", nil, append([]string{"-i", fixture}, ids...)...)

	goldenPath := filepath.Join("testdata", "b2_golden.txt")
	if os.Getenv("UPDATE_B2_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, indexed, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(indexed))
	} else {
		golden, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(indexed, golden) {
			t.Errorf("b2 report does not match testdata/b2_golden.txt:\n--- got ---\n%s\n--- golden ---\n%s",
				indexed, golden)
		}
	}

	// Every other route to the same records renders identically.
	for _, tc := range []struct {
		name  string
		stdin []byte
		args  []string
	}{
		{"stream", nil, []string{"-i", fixture, "-stream"}},
		{"workers-2", nil, []string{"-i", fixture, "-workers", "2"}},
		{"workers-4-shard-7", nil, []string{"-i", fixture, "-stream", "-workers", "4", "-shard-days", "7"}},
		{"forced-b2", nil, []string{"-i", fixture, "-format", "b2", "-workers", "2"}},
		{"stdin-workers-1", raw, []string{"-i", "-", "-workers", "1"}},
		{"stdin-workers-2", raw, []string{"-i", "-", "-workers", "2"}},
		{"b1-sequential", nil, []string{"-i", b1Path}},
	} {
		got := run("mssanalyze", tc.stdin, append(tc.args, ids...)...)
		if !bytes.Equal(got, indexed) {
			t.Errorf("%s differs from the index path:\n--- got ---\n%s\n--- index ---\n%s",
				tc.name, got, indexed)
		}
	}

	// -workers and -shard-days read a trace input; generate mode has none.
	for _, flag := range []string{"-workers", "-shard-days"} {
		cmd := exec.Command(filepath.Join(bin, "mssanalyze"), flag, "2", "-scale", "0.001")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || !strings.Contains(stderr.String(), "only apply when reading a trace with -i") {
			t.Errorf("%s in generate mode: err = %v, stderr %q; want a fatal pointing at -i", flag, err, stderr.String())
		}
	}

	// tracegen regenerates the fixture byte-identically, and msssim reads
	// b2 input.
	regen := filepath.Join(t.TempDir(), "regen.b2")
	run("tracegen", nil, "-scale", "0.002", "-seed", "3", "-days", "120", "-format", "b2", "-o", regen)
	if b, err := os.ReadFile(regen); err != nil || !bytes.Equal(b, raw) {
		t.Errorf("tracegen does not reproduce testdata/mini.b2 (err=%v, %d vs %d bytes)", err, len(b), len(raw))
	}
	if out := string(run("msssim", raw, "-i", "-")); !strings.Contains(out, "tape mounts") {
		t.Errorf("msssim could not read b2 input:\n%s", out)
	}
}

// TestMssanalyzeSnapshotMerge is the acceptance gate for the
// distributed-analysis surface: the paper workload encoded as two trace
// slice files, each analysed to an s1 snapshot by `mssanalyze
// -snapshot` (a b1 slice record by record, a b2 slice through its block
// index), then
// combined by `mssanalyze merge` — whose report must be byte-identical
// to analysing the unsplit trace, and must match the committed golden
// report testdata/snapshot_golden.txt.
func TestMssanalyzeSnapshotMerge(t *testing.T) {
	bin := buildTools(t)
	run := func(name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\nstderr: %s", name, args, err, stderr.String())
		}
		return stdout.Bytes()
	}

	// The paper workload, simulated for real latency columns, cut into
	// two binary slice files at an arbitrary record boundary (dedup
	// chains deliberately cross it).
	p, err := Run(Config{Scale: 0.001, Seed: 3, Days: 60})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cut := len(p.Records)*2/3 + 1
	whole := filepath.Join(dir, "whole.b1")
	slices := []string{filepath.Join(dir, "s0.b1"), filepath.Join(dir, "s1.b2")}
	for path, recs := range map[string][]trace.Record{
		whole: p.Records, slices[0]: p.Records[:cut], slices[1]: p.Records[cut:],
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		format := trace.FormatBinary
		if filepath.Ext(path) == ".b2" {
			format = trace.FormatB2
		}
		if err := trace.WriteAllFormat(f, recs, format); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Map: one snapshot per slice, exercising both producer paths.
	snaps := []string{filepath.Join(dir, "s0.s1"), filepath.Join(dir, "s1.s1")}
	run("mssanalyze", "-i", slices[0], "-snapshot", snaps[0])
	run("mssanalyze", "-i", slices[1], "-workers", "3", "-shard-days", "7", "-snapshot", snaps[1])

	// Reduce: the merged report matches the unsplit analysis byte for
	// byte, and the committed golden file.
	ids := []string{"-id", "table3", "-id", "table4", "-id", "figure8", "-id", "figure9"}
	merged := run("mssanalyze", append([]string{"merge"}, append(ids, snaps...)...)...)
	direct := run("mssanalyze", append([]string{"-i", whole}, ids...)...)
	if !bytes.Equal(merged, direct) {
		t.Errorf("merged snapshot report differs from direct analysis:\n--- merged ---\n%s\n--- direct ---\n%s",
			merged, direct)
	}
	goldenPath := filepath.Join("testdata", "snapshot_golden.txt")
	if os.Getenv("UPDATE_SNAPSHOT_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, merged, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(merged))
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, golden) {
		t.Errorf("merged report does not match testdata/snapshot_golden.txt:\n--- got ---\n%s\n--- golden ---\n%s",
			merged, golden)
	}
}

// TestMigexpGoldenManifest is the acceptance gate for the experiment
// runner's end-user surface: one spec file drives a 2-scenario ×
// 3-policy × 3-capacity grid, and the JSON manifest it emits is
// byte-identical at every worker count.
func TestMigexpGoldenManifest(t *testing.T) {
	bin := buildTools(t)
	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "migexp"), args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("migexp %v: %v\nstderr: %s", args, err, stderr.String())
		}
		return stdout.Bytes()
	}
	spec := filepath.Join("testdata", "quickgrid.json")

	// validate describes the plan without running it.
	plan := string(run("validate", spec))
	if !strings.Contains(plan, "2 sources × 3 policies × 3 capacities = 18 cells") {
		t.Fatalf("validate plan wrong:\n%s", plan)
	}

	// scenarios lists the full library.
	scen := string(run("scenarios"))
	for _, want := range []string{"paper-1993", "diurnal-interactive",
		"checkpoint-restart", "archive-coldscan"} {
		if !strings.Contains(scen, want) {
			t.Errorf("scenarios listing missing %s:\n%s", want, scen)
		}
	}

	// run at three worker counts: tables on stdout, manifests identical.
	dir := t.TempDir()
	var manifests [][]byte
	for i, workers := range []string{"1", "2", "8"} {
		out := filepath.Join(dir, "m"+workers+".json")
		tables := string(run("run", spec, "-workers", workers, "-o", out))
		if i == 0 {
			for _, want := range []string{"quickgrid", "paper-1993",
				"checkpoint-restart", "STP^1.4", "LRU", "OPT", "trace sha256"} {
				if !strings.Contains(tables, want) {
					t.Errorf("run tables missing %q:\n%s", want, tables)
				}
			}
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, b)
	}
	for i := 1; i < len(manifests); i++ {
		if !bytes.Equal(manifests[0], manifests[i]) {
			t.Fatalf("manifest differs between -workers 1 and -workers %d", []int{1, 2, 8}[i])
		}
	}

	// -json emits exactly the manifest bytes.
	if jsonOut := run("run", spec, "-workers", "2", "-json"); !bytes.Equal(jsonOut, manifests[0]) {
		t.Error("-json stdout differs from -o manifest file")
	}
}

// TestMigexpModernGolden pins the modern policy frontier end to end:
// running the committed moderngrid spec (the five post-1993 policies
// against STP^1.4 and LRU) reproduces the committed golden manifest
// byte-for-byte at every worker count. Regenerate the golden with
//
//	go run ./cmd/migexp run testdata/moderngrid.json -o testdata/moderngrid_manifest.json
func TestMigexpModernGolden(t *testing.T) {
	bin := buildTools(t)
	spec := filepath.Join("testdata", "moderngrid.json")
	golden, err := os.ReadFile(filepath.Join("testdata", "moderngrid_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2", "8"} {
		cmd := exec.Command(filepath.Join(bin, "migexp"), "run", spec, "-workers", workers, "-json")
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("migexp run -workers %s: %v\nstderr: %s", workers, err, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), golden) {
			t.Errorf("-workers %s manifest differs from testdata/moderngrid_manifest.json", workers)
		}
	}
}

// TestMssanalyzeMergeHardening covers the merge subcommand's input
// surface: directories and globs expand to their .s1 files, zero inputs
// is a hard error rather than an empty report, and a corrupt snapshot
// is rejected with the offending filename in the error.
func TestMssanalyzeMergeHardening(t *testing.T) {
	bin := buildTools(t)
	mss := filepath.Join(bin, "mssanalyze")
	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(mss, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("mssanalyze %v: %v\nstderr: %s", args, err, stderr.String())
		}
		return stdout.Bytes()
	}
	// mustFail runs mssanalyze expecting a non-zero exit and returns
	// stderr for message assertions.
	mustFail := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(mss, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if err == nil || !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("mssanalyze %v: expected non-zero exit, got %v\nstderr: %s",
				args, err, stderr.String())
		}
		return stderr.String()
	}

	// Two snapshots of a split paper workload, in their own directory.
	p, err := Run(Config{Scale: 0.001, Seed: 3, Days: 30})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snaps")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cut := len(p.Records) / 2
	snaps := []string{filepath.Join(snapDir, "s0.s1"), filepath.Join(snapDir, "s1.s1")}
	for i, recs := range [][]trace.Record{p.Records[:cut], p.Records[cut:]} {
		slice := filepath.Join(dir, "slice.b1")
		f, err := os.Create(slice)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteAllFormat(f, recs, trace.FormatBinary); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		run("-i", slice, "-snapshot", snaps[i])
	}

	// Explicit files, the containing directory, and a glob all name the
	// same inputs and must render the same report.
	want := run("merge", "-id", "table3", snaps[0], snaps[1])
	if got := run("merge", "-id", "table3", snapDir); !bytes.Equal(got, want) {
		t.Errorf("merge <dir> differs from explicit file list:\n--- dir ---\n%s\n--- files ---\n%s",
			got, want)
	}
	if got := run("merge", "-id", "table3", filepath.Join(snapDir, "*.s1")); !bytes.Equal(got, want) {
		t.Errorf("merge <glob> differs from explicit file list:\n--- glob ---\n%s\n--- files ---\n%s",
			got, want)
	}

	// Zero inputs — no args, an empty directory, a matchless glob — must
	// exit non-zero, not succeed with an empty report.
	if msg := mustFail("merge"); !strings.Contains(msg, "at least one") {
		t.Errorf("bare merge error unhelpful: %s", msg)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if msg := mustFail("merge", empty); !strings.Contains(msg, "no .s1 snapshots match") {
		t.Errorf("empty-dir merge error unhelpful: %s", msg)
	}
	if msg := mustFail("merge", filepath.Join(dir, "nope*.s1")); !strings.Contains(msg, "no .s1 snapshots match") {
		t.Errorf("matchless-glob merge error unhelpful: %s", msg)
	}

	// A corrupt snapshot merged in trace order fails to decode — cut
	// short by its last byte, which the decoder always rejects — and the
	// error names the file.
	corrupt := filepath.Join(dir, "bad.s1")
	raw, err := os.ReadFile(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := mustFail("merge", snaps[0], corrupt); !strings.Contains(msg, "bad.s1") ||
		strings.Contains(msg, "trace order") {
		t.Errorf("corrupt-snapshot error does not name the file, or is not a decode error: %s", msg)
	}

	// Snapshots handed over out of trace order fail the merge, and the
	// error names the file that broke the order.
	if msg := mustFail("merge", snaps[1], snaps[0]); !strings.Contains(msg, snaps[0]) ||
		!strings.Contains(msg, "trace order") {
		t.Errorf("swapped-order merge error does not name the file: %s", msg)
	}
}

// TestMigexpDistributedProcesses runs the real multi-process topology:
// one coordinator process and two worker processes over loopback. The
// coordinator's -json manifest must be byte-identical to a local run,
// and every process must exit cleanly.
func TestMigexpDistributedProcesses(t *testing.T) {
	bin := buildTools(t)
	migexp := filepath.Join(bin, "migexp")
	spec := filepath.Join("testdata", "quickgrid.json")

	local, err := exec.Command(migexp, "run", spec, "-json").Output()
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	coord := exec.Command(migexp, "run", spec, "-distributed", "-listen", "127.0.0.1:0", "-json")
	var stdout bytes.Buffer
	coord.Stdout = &stdout
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The coordinator announces its address on stderr before serving.
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			base = strings.Fields(rest)[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("coordinator never announced its address (scan err %v)", sc.Err())
	}
	go func() { // keep draining so the coordinator never blocks on stderr
		for sc.Scan() {
		}
	}()

	workers := make([]*exec.Cmd, 2)
	for i := range workers {
		workers[i] = exec.Command(migexp, "worker", "-connect", base)
		var werr bytes.Buffer
		workers[i].Stderr = &werr
		if err := workers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator exited with %v", err)
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("worker %d exited with %v\nstderr: %s", i, err, w.Stderr)
		}
	}
	if !bytes.Equal(stdout.Bytes(), local) {
		t.Errorf("distributed -json manifest differs from local run (%d vs %d bytes)",
			stdout.Len(), len(local))
	}
}
