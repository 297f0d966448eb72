// Command migsim evaluates file migration policies against a trace: the
// policy comparison of §2.3/§6 (STP, LRU, size, FIFO, SAAC, random, OPT),
// capacity sweeps, the STP exponent sweep, and the eight-hour coalescing
// analysis. The three grids are experiment spec presets run by the
// migexp engine (internal/experiment); migsim keeps their tables.
//
// Usage:
//
//	migsim -scale 0.01                      # policy comparison at 2% cache
//	migsim -i trace.txt -capacity 0.015
//	migsim -scale 0.01 -sweep               # capacity sweep for STP^1.4
//	migsim -scale 0.01 -stp-sweep           # exponent ablation
//	migsim -scale 0.01 -coalesce            # §6 savable-request analysis
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"filemig/internal/experiment"
	"filemig/internal/host"
	"filemig/internal/migration"
	"filemig/internal/trace"
	"filemig/internal/units"
	"filemig/internal/workload"
)

// paperPolicies is the §2.3/§6 comparison set: the paper's online
// policies plus the offline OPT bound, in spec grammar.
var paperPolicies = []string{"stp:1.4", "stp:1", "lru", "saac", "fifo",
	"largest-first", "smallest-first", "random", "opt"}

// stpExponents is Smith's ablation axis, which singled out K = 1.4.
var stpExponents = []float64{0, 0.5, 1, 1.4, 2, 4}

func main() {
	log.SetFlags(0)
	log.SetPrefix("migsim: ")
	var (
		in       = flag.String("i", "", "input trace ('-' for stdin); empty = generate")
		scale    = flag.Float64("scale", 0.01, "scale when generating")
		seed     = flag.Int64("seed", 1, "seed")
		capFrac  = flag.Float64("capacity", 0.02, "cache capacity as a fraction of referenced data")
		sweep    = flag.Bool("sweep", false, "capacity sweep for STP^1.4")
		stpSweep = flag.Bool("stp-sweep", false, "STP exponent sweep at the given capacity")
		coalesce = flag.Bool("coalesce", false, "coalescing-window analysis")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = one per CPU, 1 = serial)")
	)
	flag.Parse()

	if *coalesce {
		recs := load(*in, *scale, *seed)
		accs := migration.AccessesFromRecords(recs)
		header(len(accs), migration.TotalReferencedBytes(accs))
		windows := []time.Duration{time.Hour, 4 * time.Hour, 8 * time.Hour,
			16 * time.Hour, 24 * time.Hour}
		fmt.Printf("%-10s %12s %12s %10s\n", "window", "requests", "savable", "fraction")
		for _, r := range migration.CoalesceSweep(recs, windows) {
			fmt.Printf("%-10s %12d %12d %9.1f%%\n",
				r.Window, r.Requests, r.Savable, 100*r.SavableFraction())
		}
		return
	}

	// The engine takes only explicit worker counts; the per-CPU default
	// is resolved here at the boundary.
	spec := experiment.Spec{Name: "migsim", Workers: *workers}
	if spec.Workers <= 0 {
		spec.Workers = host.DefaultWorkers()
	}
	switch *in {
	case "":
		spec.Scenarios = []string{workload.ScenarioPaper1993}
		spec.Scale, spec.Seed = *scale, *seed
	case "-":
		spec.Trace = "/dev/stdin"
	default:
		spec.Trace = *in
	}
	var render func(sr *experiment.ScenarioResult)
	switch {
	case *sweep:
		spec.Policies = []string{"stp:1.4"}
		render = renderSweep
	case *stpSweep:
		spec.STPExponents = stpExponents
		spec.Capacities = []float64{*capFrac}
		render = renderExponentSweep
	default:
		spec.Policies = paperPolicies
		spec.Capacities = []float64{*capFrac}
		render = renderComparison
	}
	m, err := experiment.Run(context.Background(), &spec)
	if err != nil {
		log.Fatal(err)
	}
	sr := &m.Scenarios[0]
	header(sr.Accesses, units.Bytes(sr.ReferencedBytes))
	render(sr)
}

// header prints the reference string's size, above every mode's table.
func header(accesses int, total units.Bytes) {
	fmt.Printf("%d accesses to %s of distinct data\n\n", accesses, total)
}

// renderComparison prints the §6 policy table, best read miss ratio
// first (ties keep the preset's order).
func renderComparison(sr *experiment.ScenarioResult) {
	rows := sr.Policies
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Cells[0].MissRatio < rows[j].Cells[0].MissRatio })
	c := rows[0].Cells[0]
	fmt.Printf("policy comparison at %.1f%% cache (%s)\n", 100*c.CapacityFraction, units.Bytes(c.CapacityBytes))
	fmt.Printf("%-16s %10s %12s %12s %14s\n",
		"policy", "miss%", "byte miss%", "evictions", "person-min/day")
	for _, row := range rows {
		c := row.Cells[0]
		fmt.Printf("%-16s %9.2f%% %11.2f%% %12d %14.1f\n",
			row.Policy, 100*c.MissRatio, 100*c.ByteMissRatio, c.Evictions, c.PersonMinutesPerDay)
	}
}

// renderExponentSweep prints the STP exponent ablation, one row per
// stpExponents entry, and the first exponent with the lowest miss ratio.
func renderExponentSweep(sr *experiment.ScenarioResult) {
	c := sr.Policies[0].Cells[0]
	fmt.Printf("STP exponent sweep at %.1f%% cache (%s)\n", 100*c.CapacityFraction, units.Bytes(c.CapacityBytes))
	fmt.Printf("%-10s %10s %12s %12s\n", "exponent", "miss%", "byte miss%", "evictions")
	best := 0
	for i, row := range sr.Policies {
		c := row.Cells[0]
		fmt.Printf("STP^%-6.2g %9.2f%% %11.2f%% %12d\n",
			stpExponents[i], 100*c.MissRatio, 100*c.ByteMissRatio, c.Evictions)
		if c.MissRatio < sr.Policies[best].Cells[0].MissRatio {
			best = i
		}
	}
	fmt.Printf("best exponent: %g (%.2f%% miss)\n", stpExponents[best], 100*sr.Policies[best].Cells[0].MissRatio)
}

// renderSweep prints the STP^1.4 capacity sweep.
func renderSweep(sr *experiment.ScenarioResult) {
	fmt.Printf("%-12s %10s %12s\n", "capacity", "miss%", "byte miss%")
	for _, c := range sr.Policies[0].Cells {
		fmt.Printf("%10.2f%% %9.2f%% %11.2f%%\n",
			100*c.CapacityFraction, 100*c.MissRatio, 100*c.ByteMissRatio)
	}
}

// load reads the coalescing analysis's records: generated when in is
// empty, else from a trace file or ("-") stdin.
func load(in string, scale float64, seed int64) []trace.Record {
	if in == "" {
		res, err := workload.Generate(workload.DefaultConfig(scale, seed))
		if err != nil {
			log.Fatal(err)
		}
		return res.Records
	}
	f := os.Stdin
	if in != "-" {
		var err error
		f, err = os.Open(in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
	}
	recs, err := trace.ReadAll(f)
	if err != nil {
		log.Fatal(err)
	}
	return recs
}
