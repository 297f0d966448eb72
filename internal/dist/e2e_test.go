package dist

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"filemig/internal/core"
	"filemig/internal/dist/chaos"
	"filemig/internal/experiment"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// quickSpec is the committed-golden grid: small enough for CI, big
// enough to exercise every axis (two scenarios, stateless/stateful/
// offline policies, three capacities — 18 cells).
func quickSpec() *experiment.Spec {
	return &experiment.Spec{
		Name:       "quickgrid",
		Scenarios:  []string{"paper-1993", "checkpoint-restart"},
		Scale:      0.002,
		Seed:       5,
		Days:       45,
		Policies:   []string{"stp:1.4", "random:3", "opt"},
		Capacities: []float64{0.01, 0.02, 0.10},
	}
}

func quickPlan(t *testing.T) *experiment.Plan {
	t.Helper()
	plan, err := experiment.BuildPlan(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// localManifestJSON runs the quickgrid locally — the byte truth the
// distributed paths must reproduce.
func localManifestJSON(t *testing.T) []byte {
	t.Helper()
	m, err := experiment.RunPlan(context.Background(), quickPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serve starts a coordinator on a loopback listener and returns its
// base URL plus the Serve result channel.
func serve(t *testing.T, ctx context.Context, c *Coordinator) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- c.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), served
}

// startWorkers launches n workers against base and returns a wait
// function that collects their errors.
func startWorkers(ctx context.Context, base string, n int, opts func(i int) WorkerOptions) func() []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, base, opts(i))
		}(i)
	}
	return func() []error { wg.Wait(); return errs }
}

// TestChaosGridReproducesGolden is the headline fault-injection test:
// three workers behind transports injecting drops, delays, duplicates,
// truncations, and corruption on well over 30% of exchanges must still
// assemble the committed golden manifest byte for byte.
func TestChaosGridReproducesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed grid under fault injection")
	}
	local := localManifestJSON(t)
	goldenPath := filepath.Join("testdata", "quickgrid_manifest.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, local, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/dist -run TestChaosGrid -update` to create it)", err)
	}
	if !bytes.Equal(local, golden) {
		t.Fatal("local run no longer matches the committed golden manifest; " +
			"if the change is intentional, regenerate with -update")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	g, err := NewGridCoordinator(quickPlan(t), Options{
		Lease:          1500 * time.Millisecond,
		SpeculateAfter: 400 * time.Millisecond,
		MaxAttempts:    12,
		BackoffBase:    10 * time.Millisecond,
		BackoffCap:     200 * time.Millisecond,
		Window:         8,
		Now:            time.Now,
		Seed:           42,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, served := serve(t, ctx, g.Coordinator)

	transports := make([]*chaos.Transport, 3)
	wait := startWorkers(ctx, base, len(transports), func(i int) WorkerOptions {
		transports[i] = chaos.New(nil, chaos.Options{
			Seed:         int64(1000 + i),
			DropRequest:  0.15,
			DropResponse: 0.10,
			Duplicate:    0.12,
			Truncate:     0.10,
			Corrupt:      0.10,
			DelayProb:    0.20,
			MaxDelay:     20 * time.Millisecond,
		})
		return WorkerOptions{
			Client: &http.Client{Transport: transports[i], Timeout: 30 * time.Second},
			Seed:   int64(i + 1),
		}
	})

	if err := <-served; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}

	var injected, total int64
	for _, tr := range transports {
		i, n := tr.Counts()
		injected, total = injected+i, total+n
	}
	t.Logf("chaos: %d of %d exchanges had faults injected (%.0f%%)", injected, total, 100*float64(injected)/float64(total))
	if total == 0 || injected*10 < total*3 {
		t.Fatalf("fault injection too weak to prove anything: %d/%d < 30%%", injected, total)
	}

	m, err := g.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Error("distributed manifest under fault injection differs from the committed golden")
	}
}

// TestCoordinatorCrashResume kills a journaled coordinator mid-grid and
// proves a restart over the same journal finishes the run without
// re-executing completed cells and still emits the local manifest byte
// for byte.
func TestCoordinatorCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full distributed grid, twice")
	}
	local := localManifestJSON(t)
	journal := t.TempDir()
	opts := Options{
		Lease:       5 * time.Second,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  100 * time.Millisecond,
		JournalDir:  journal,
		Now:         time.Now,
		Seed:        7,
	}

	// Phase 1: run until at least two cells are spooled, then kill the
	// coordinator (context cancel = SIGINT's graceful drain).
	g1, err := NewGridCoordinator(quickPlan(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	base1, served1 := serve(t, ctx1, g1.Coordinator)
	wait1 := startWorkers(ctx1, base1, 2, func(i int) WorkerOptions {
		return WorkerOptions{Seed: int64(i + 1)}
	})
	deadline := time.Now().Add(time.Minute)
	for spooled(t, journal) < 2 {
		select {
		case err := <-served1:
			// The whole grid finished before we pulled the plug — rare but
			// legal; resume below then just replays a complete journal.
			if err != nil {
				t.Fatalf("phase 1 coordinator: %v", err)
			}
			served1 <- nil
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no cells spooled within a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel1()
	<-served1
	wait1()

	// Phase 2: a fresh coordinator over the same journal resumes the
	// completed prefix and finishes the rest.
	g2, err := NewGridCoordinator(quickPlan(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Resumed() == 0 {
		t.Fatal("restart resumed no cells despite a spooled journal")
	}
	t.Logf("resumed %d of 18 cells from the journal", g2.Resumed())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	base2, served2 := serve(t, ctx2, g2.Coordinator)
	wait2 := startWorkers(ctx2, base2, 2, func(i int) WorkerOptions {
		return WorkerOptions{Seed: int64(i + 100)}
	})
	if err := <-served2; err != nil {
		t.Fatalf("phase 2 coordinator: %v", err)
	}
	for i, err := range wait2() {
		if err != nil {
			t.Errorf("phase 2 worker %d: %v", i, err)
		}
	}
	m, err := g2.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, local) {
		t.Error("resumed manifest differs from the local run")
	}
}

// spooled counts valid journal spool files.
func spooled(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "r") && strings.HasSuffix(e.Name(), ".frame") {
			n++
		}
	}
	return n
}

// TestB2ShardDistributedMatchesLocal distributes one b2 file's
// block-group shards over two workers and requires the merged analysis
// snapshot to be byte-identical to a single-process journaled
// accumulation of the same file.
func TestB2ShardDistributedMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and distributes a b2 trace")
	}
	cfg, err := workload.ScenarioConfig("paper-1993", 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Days = 60
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	w := trace.NewB2WriterEpochBlock(&enc, res.Records[0].Start, 256)
	for i := range res.Records {
		if err := w.Write(&res.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.b2")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := trace.OpenB2File(bytes.NewReader(enc.Bytes()), int64(enc.Len()))
	if err != nil {
		t.Fatal(err)
	}

	shard := 10 * 24 * time.Hour
	localA, err := core.AccumulateB2Blocks(context.Background(), core.StreamOptions{
		Options:       core.Options{DedupWindow: workload.DedupWindow, Journal: true},
		Workers:       2,
		ShardDuration: shard,
	}, bf, 0, bf.NumBlocks())
	if err != nil {
		t.Fatal(err)
	}
	var localSnap bytes.Buffer
	if err := localA.WriteSnapshot(&localSnap); err != nil {
		t.Fatal(err)
	}

	b, err := NewB2ShardCoordinator(B2ShardConfig{
		Path:          path,
		File:          bf,
		Size:          int64(enc.Len()),
		DedupWindow:   workload.DedupWindow,
		ShardDuration: shard,
	}, Options{Now: time.Now, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	base, served := serve(t, ctx, b.Coordinator)
	wait := startWorkers(ctx, base, 2, func(i int) WorkerOptions {
		return WorkerOptions{Seed: int64(i + 1)}
	})
	if err := <-served; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	distA, err := b.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	var distSnap bytes.Buffer
	if err := distA.WriteSnapshot(&distSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(distSnap.Bytes(), localSnap.Bytes()) {
		t.Error("distributed b2 analysis snapshot differs from the single-process accumulation")
	}
}

// TestWorkerFaultPathsEndToEnd drives a live coordinator/worker pair
// through the execution-failure and lease-expiry paths: one task fails
// its first attempt, one stalls past its lease, and the run still
// completes with every result delivered exactly once, in order.
func TestWorkerFaultPathsEndToEnd(t *testing.T) {
	payloads := [][]byte{[]byte("ok-0"), []byte("fail-once"), []byte("stall-once"), []byte("ok-3")}
	var delivered []string
	c, err := NewCoordinator(Config{
		Kind: "unit/v1", PlanHash: "e2e", Plan: []byte("{}"),
		Payloads: payloads,
		Handle: func(id int, result []byte) error {
			delivered = append(delivered, fmt.Sprintf("%d=%s", id, result))
			return nil
		},
	}, Options{
		Lease:       250 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
		Now:         time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	base, served := serve(t, ctx, c)

	var failed, stalled atomic.Bool
	exec := func(kind string, plan []byte) (ExecFunc, error) {
		if kind != "unit/v1" {
			return nil, fmt.Errorf("unexpected kind %q", kind)
		}
		return func(ctx context.Context, payload []byte) ([]byte, error) {
			switch {
			case string(payload) == "fail-once" && failed.CompareAndSwap(false, true):
				return nil, fmt.Errorf("injected execution failure")
			case string(payload) == "stall-once" && stalled.CompareAndSwap(false, true):
				// Outlive the lease, then fail: the coordinator must already
				// have presumed this worker dead and re-queued the task.
				time.Sleep(600 * time.Millisecond)
				return nil, fmt.Errorf("injected straggler death")
			}
			return append([]byte("done:"), payload...), nil
		}, nil
	}
	wait := startWorkers(ctx, base, 1, func(i int) WorkerOptions {
		return WorkerOptions{Seed: 9, NewExec: exec}
	})
	if err := <-served; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := wait()[0]; err != nil {
		t.Fatalf("worker: %v", err)
	}
	want := "[0=done:ok-0 1=done:fail-once 2=done:stall-once 3=done:ok-3]"
	if got := fmt.Sprint(delivered); got != want {
		t.Fatalf("delivered %s, want %s", got, want)
	}
	if !failed.Load() || !stalled.Load() {
		t.Fatal("fault hooks never fired")
	}
}
