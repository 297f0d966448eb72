//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what is Put, so pooled scratch is re-made at random and
// allocation counts mean nothing.
const raceEnabled = true
