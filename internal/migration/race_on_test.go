//go:build race

package migration

// raceEnabled reports that the race detector is on: its instrumentation
// then allocates on its own, so allocation counts mean nothing.
const raceEnabled = true
