package filemig

import (
	"fmt"
	"strings"

	"filemig/internal/device"
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
