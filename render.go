package filemig

import (
	"fmt"
	"strings"

	"filemig/internal/device"
	"filemig/internal/migration"
	"filemig/internal/mss"
	"filemig/internal/units"
)

// renderTable1 prints the device comparison (Table 1) plus the §2.2
// whole-file crossover analysis between optical disk and tape.
func renderTable1() string {
	var b strings.Builder
	b.WriteString(device.RenderTable1(device.Table1()))
	x := device.CrossoverSize(&device.OpticalJukebox, &device.SiloTape3480,
		units.Bytes(200*units.MB))
	fmt.Fprintf(&b, "\nWhole-file fetch crossover (optical -> tape wins): %s\n", x)
	return b.String()
}

// renderFigure1 prints the storage pyramid.
func renderFigure1() string {
	return device.RenderHierarchy(device.Hierarchy())
}

// renderFigure2 prints the network topology.
func renderFigure2() string {
	var b strings.Builder
	b.WriteString("Figure 2: network connections between machines at NCAR\n")
	for _, l := range mss.Topology() {
		fmt.Fprintf(&b, "  %-28s -> %-28s via %s\n", l.From, l.To, l.Via)
	}
	return b.String()
}

// RenderPolicyComparison prints a §6-style policy table.
func RenderPolicyComparison(results []migration.CacheResult, days float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %14s\n",
		"policy", "miss%", "byte miss%", "evictions", "person-min/day")
	for _, r := range results {
		fmt.Fprintf(&b, "%-16s %9.2f%% %11.2f%% %12d %14.1f\n",
			r.Policy, 100*r.MissRatio(), 100*r.ByteMissRatio(), r.Evictions,
			r.PersonMinutesPerDay(days, extraTapeLatency))
	}
	return b.String()
}

// extraTapeLatency is the added human wait of a read miss (Table 3:
// ~104s silo vs ~30s disk), shared with the experiment manifests.
const extraTapeLatency = migration.ExtraTapeLatency

// RenderExponentSweep prints an STP exponent ablation.
func RenderExponentSweep(points []migration.ExponentPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %12s %12s\n", "exponent", "miss%", "byte miss%", "evictions")
	for _, p := range points {
		fmt.Fprintf(&b, "STP^%-6.2g %9.2f%% %11.2f%% %12d\n",
			p.K, 100*p.Result.MissRatio(), 100*p.Result.ByteMissRatio(), p.Result.Evictions)
	}
	if best, ok := migration.BestExponent(points); ok {
		fmt.Fprintf(&b, "best exponent: %g (%.2f%% miss)\n", best.K, 100*best.Result.MissRatio())
	}
	return b.String()
}

// RenderSweep prints a capacity sweep.
func RenderSweep(points []migration.SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %12s\n", "capacity", "miss%", "byte miss%")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.2f%% %9.2f%% %11.2f%%\n",
			100*p.CapacityFraction, 100*p.Result.MissRatio(), 100*p.Result.ByteMissRatio())
	}
	return b.String()
}
