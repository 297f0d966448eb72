//go:build race

package experiment

// raceEnabled reports that the race detector is on: its own
// allocations then skew MemStats, so allocation budgets mean nothing.
const raceEnabled = true
