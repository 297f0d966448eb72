// Command mssanalyze runs the paper's analysis over a trace and prints
// any or all of its tables and figures — or, for distributed runs,
// saves the analysis as a mergeable s1 snapshot and merges snapshots
// back into one report.
//
// Usage:
//
//	mssanalyze -i trace.txt -all
//	mssanalyze -i trace.b2 -workers 8             # index-seek, parallel decode
//	mssanalyze -scale 0.02 -id table3 -id figure7
//	tracegen -scale 0.01 -sim | mssanalyze -all
//	mssanalyze -i slice0.b1 -snapshot s0.s1       # map: analyse one slice
//	mssanalyze merge [-id ...] s0.s1 s1.s1        # reduce: merge + report
//
// With -scale and no -i, a synthetic trace is generated and simulated
// in-process. The input codec (ASCII v1, binary b1, or columnar b2) is
// auto-detected; -format forces one, and the input picks the
// mechanism, with byte-identical output. A b2 input is analysed through
// its trailing block index — a named file in place, a b2 on a pipe
// ('-i -') after reading all of it into memory: shards are cut from
// index metadata (-shard-days) and blocks decode in parallel on a
// bounded worker pool (-workers). A v1 or b1 input is analysed record by
// record as it is read, so over a pipe the analysis overlaps the
// producer and only the render trails EOF. No path keeps a record: every
// experiment, §6 coalescing included, renders from the analysis's
// per-file state. -stream means one thing: never run the MSS simulator.
// In generate mode it skips the simulation (latency columns stay empty;
// pipe tracegen -sim into -i - for them); a trace input is never
// simulated, so with -i it changes nothing.
//
// With -snapshot, the analysis state is written to the named s1 file
// ('-' for stdout) instead of printing a report; trace slices may be
// analysed on different machines and their snapshots combined with the
// merge mode, whose report is byte-identical to analysing the
// concatenated trace in one process (docs/snapshots.md). Slices need
// not align with the eight-hour dedup window, but must be merged in
// trace time order. Merge arguments may be .s1 files, directories
// (their *.s1 files, sorted by name), or globs.
//
// With -distributed, a b2 input's block-index shards are served to
// mssanalyze worker processes under expiring leases and the returned
// snapshots merged into a report byte-identical to a local run — see
// docs/distributed.md:
//
//	mssanalyze -i trace.b2 -distributed -listen :9632 -all
//	mssanalyze worker -connect http://host:9632
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"filemig"
	"filemig/internal/core"
	"filemig/internal/dist"
	"filemig/internal/host"
	"filemig/internal/trace"
	"filemig/internal/workload"
)

type idList []string

func (l *idList) String() string { return fmt.Sprint(*l) }
func (l *idList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mssanalyze: ")
	if len(os.Args) > 1 && os.Args[1] == "merge" {
		runMerge(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		runWorker(os.Args[2:])
		return
	}
	var ids idList
	var (
		in          = flag.String("i", "", "input trace file ('-' for stdin); empty = generate")
		scale       = flag.Float64("scale", 0.01, "scale when generating")
		seed        = flag.Int64("seed", 1, "seed when generating")
		all         = flag.Bool("all", false, "print every table and figure")
		stream      = flag.Bool("stream", false, "never run the MSS simulator: in generate mode, skip it (latency columns stay empty); a trace input (-i) is never simulated, so there it changes nothing")
		workers     = flag.Int("workers", 0, "worker pool size for a b2 trace input's block index (0 = one per CPU); needs -i")
		shardDays   = flag.Int("shard-days", 0, "shard width in days for a b2 trace input's block index, local or -distributed (0 = 28); needs -i")
		format      = flag.String("format", "auto", "input format: auto, ascii, binary or b2")
		snapshot    = flag.String("snapshot", "", "write an s1 analysis snapshot here ('-' for stdout) instead of reporting")
		distributed = flag.Bool("distributed", false, "serve a b2 input's shards to mssanalyze worker processes")
		listen      = flag.String("listen", "127.0.0.1:0", "coordinator listen address (with -distributed)")
		journal     = flag.String("journal", "", "journal directory for resumable runs (with -distributed)")
		lease       = flag.Duration("lease", 0, "task lease before a worker is presumed dead (with -distributed; 0 = 15s)")
	)
	flag.Var(&ids, "id", "experiment to print (table3, figure7, ...); repeatable")
	flag.Parse()
	if *in == "" && (*workers != 0 || *shardDays != 0) {
		log.Fatal("-workers and -shard-days only apply when reading a trace with -i")
	}
	if !*distributed && (*listen != "127.0.0.1:0" || *journal != "" || *lease != 0) {
		log.Fatal("-listen, -journal and -lease only apply with -distributed")
	}
	// The deterministic analysis packages take only explicit worker
	// counts; the per-CPU default is resolved here at the boundary.
	if *in != "" && *workers <= 0 {
		*workers = host.DefaultWorkers()
	}
	if *in == "" && *format != "auto" {
		log.Fatal("-format only applies when reading a trace with -i")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *distributed {
		a := runDistributed(ctx, *in, *format, *listen, *journal, *lease,
			time.Duration(*shardDays)*24*time.Hour)
		if *snapshot != "" {
			if *all || len(ids) > 0 {
				log.Fatal("-snapshot replaces the report; drop -all/-id")
			}
			emitSnapshot(a, *snapshot)
			return
		}
		renderExperiments(&filemig.Pipeline{Report: a.Report()}, ids, *all)
		return
	}
	if *snapshot != "" {
		if *in == "" {
			log.Fatal("-snapshot needs a trace input (-i); snapshots of generated workloads carry no namespace tree")
		}
		if *all || len(ids) > 0 {
			log.Fatal("-snapshot replaces the report; drop -all/-id")
		}
		a := analyzeInput(ctx, *in, *format, *workers, *shardDays, true)
		emitSnapshot(a, *snapshot)
		return
	}

	var p *filemig.Pipeline
	switch {
	case *in == "" && *stream:
		fmt.Fprintln(os.Stderr,
			"mssanalyze: note: -stream generates without the MSS simulator; latency columns (Table 3, Figure 3) will be empty")
		rep, err := filemig.RunStreamContext(ctx, filemig.Config{Scale: *scale, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		p = &filemig.Pipeline{Report: rep}
	case *in == "":
		var err error
		p, err = filemig.Run(filemig.Config{Scale: *scale, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
	default:
		a := analyzeInput(ctx, *in, *format, *workers, *shardDays, false)
		p = &filemig.Pipeline{Report: a.Report()}
	}

	renderExperiments(p, ids, *all)
}

// analyzeInput analyses a trace input with core.AccumulateStream, which
// takes a b2 input through its block index and reads any other record
// by record; neither keeps a record. journal keeps the reference journal
// a snapshot needs. Every error is fatal.
func analyzeInput(ctx context.Context, in, format string, workers, shardDays int, journal bool) *core.Analysis {
	f := os.Stdin
	if in != "-" {
		var err error
		f, err = os.Open(in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
	}
	src, err := trace.OpenStreamFlag(f, format)
	if err != nil {
		log.Fatal(err)
	}
	a, err := core.AccumulateStream(ctx, core.StreamOptions{
		Options:       core.Options{DedupWindow: workload.DedupWindow, Journal: journal},
		Workers:       workers,
		ShardDuration: time.Duration(shardDays) * 24 * time.Hour,
	}, src)
	if err != nil {
		log.Fatal(err)
	}
	return a
}

// renderExperiments prints the selected (or all) experiments from a
// finished pipeline.
func renderExperiments(p *filemig.Pipeline, ids idList, all bool) {
	render := func(e filemig.Experiment) {
		fmt.Printf("== %s ==\n%s\n", e.Title, e.Render(p))
	}
	if all || len(ids) == 0 {
		for _, e := range filemig.Experiments() {
			render(e)
		}
		return
	}
	for _, id := range ids {
		e, ok := filemig.FindExperiment(id)
		if !ok {
			log.Fatalf("unknown experiment %q (try table3, figure7, periodicity, coalesce)", id)
		}
		render(e)
	}
}

// emitSnapshot serializes an analysis as an s1 snapshot to the named
// file ('-' for stdout).
func emitSnapshot(a *core.Analysis, out string) {
	w := os.Stdout
	if out != "-" {
		var err error
		w, err = os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := a.WriteSnapshot(w); err != nil {
		log.Fatal(err)
	}
	if out != "-" {
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// runDistributed serves a b2 input's block-index shards to mssanalyze
// worker processes and returns the merged analysis. An interrupt drains
// gracefully; with a journal the run is resumable.
func runDistributed(ctx context.Context, in, format, listen, journal string, lease, shard time.Duration) *core.Analysis {
	if in == "" || in == "-" {
		log.Fatal("-distributed needs a named trace file (-i); workers open the same path")
	}
	f, err := os.Open(in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	src, err := trace.OpenStreamFlag(f, format)
	if err != nil {
		log.Fatal(err)
	}
	bf := trace.TakeB2File(src)
	if bf == nil {
		log.Fatalf("%s is not a b2 trace; -distributed shards along the b2 block index", in)
	}
	b, err := dist.NewB2ShardCoordinator(dist.B2ShardConfig{
		Path:          in,
		File:          bf,
		Size:          st.Size(),
		DedupWindow:   workload.DedupWindow,
		ShardDuration: shard,
	}, dist.Options{
		Lease:      lease,
		JournalDir: journal,
		Now:        host.Now,
		Seed:       host.Seed(),
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mssanalyze: coordinator listening on http://%s", ln.Addr())
	if b.Resumed() > 0 {
		fmt.Fprintf(os.Stderr, " (%d shards already complete in journal)", b.Resumed())
	}
	fmt.Fprintf(os.Stderr, "; start workers with: mssanalyze worker -connect http://%s\n", ln.Addr())
	if err := b.Serve(ctx, ln); err != nil {
		if errors.Is(err, context.Canceled) && journal != "" {
			log.Fatalf("interrupted; completed shards are journaled in %s — re-run with the same -journal to resume", journal)
		}
		log.Fatal(err)
	}
	a, err := b.Analysis()
	if err != nil {
		log.Fatal(err)
	}
	return a
}

// runWorker joins a coordinator and executes shard tasks until the run
// completes.
func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mssanalyze worker -connect http://host:port [-seed N]")
		fs.PrintDefaults()
	}
	connect := fs.String("connect", "", "coordinator base URL (http://host:port)")
	seed := fs.Int64("seed", 0, "jitter seed (0 = process-unique)")
	fs.Parse(args)
	if *connect == "" || fs.NArg() != 0 {
		log.Fatal("worker needs -connect http://host:port and no positional arguments")
	}
	if *seed == 0 {
		*seed = host.Seed()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := dist.RunWorker(ctx, *connect, dist.WorkerOptions{Seed: *seed}); err != nil {
		log.Fatal(err)
	}
}

// runMerge implements the merge mode: load s1 snapshots in trace order,
// merge them, and report. Arguments may be .s1 files, directories
// (their *.s1 entries, sorted by name) or globs; flags come before
// them. A corrupt snapshot is reported with the offending filename.
func runMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mssanalyze merge [-all] [-id table3 ...] a.s1 dir/ 'shard*.s1' ...")
		fs.PrintDefaults()
	}
	var ids idList
	all := fs.Bool("all", false, "print every table and figure")
	fs.Var(&ids, "id", "experiment to print (table3, figure7, ...); repeatable")
	fs.Parse(args)
	if fs.NArg() == 0 {
		log.Fatal("merge needs at least one .s1 snapshot file, directory or glob")
	}
	files := expandSnapshotArgs(fs.Args())
	if len(files) == 0 {
		log.Fatalf("no .s1 snapshots match %s", strings.Join(fs.Args(), " "))
	}
	m := core.NewSnapshotMerger()
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			log.Fatal(err)
		}
		err = m.Add(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	a, err := m.Analysis()
	if err != nil {
		log.Fatal(err)
	}
	renderExperiments(&filemig.Pipeline{Report: a.Report()}, ids, *all)
}

// expandSnapshotArgs turns merge's arguments into a snapshot file list:
// a directory contributes its *.s1 entries sorted by name, an argument
// with glob metacharacters its sorted matches, and anything else is
// taken as a literal filename. Snapshots merge in trace time order, so
// expansion preserves argument order and sorts only within each
// argument.
func expandSnapshotArgs(args []string) []string {
	var files []string
	for _, arg := range args {
		switch st, err := os.Stat(arg); {
		case err == nil && st.IsDir():
			matches, err := filepath.Glob(filepath.Join(arg, "*.s1"))
			if err != nil {
				log.Fatal(err)
			}
			sort.Strings(matches)
			files = append(files, matches...)
		case strings.ContainsAny(arg, "*?["):
			matches, err := filepath.Glob(arg)
			if err != nil {
				log.Fatalf("%s: %v", arg, err)
			}
			sort.Strings(matches)
			files = append(files, matches...)
		default:
			files = append(files, arg)
		}
	}
	return files
}
