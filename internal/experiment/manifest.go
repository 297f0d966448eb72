package experiment

import (
	"encoding/json"

	"filemig/internal/migration"
)

// ExtraTapeLatency re-exports the §2.3 read-miss human cost the
// manifests' person-minutes figures are computed with.
const ExtraTapeLatency = migration.ExtraTapeLatency

// Manifest is one experiment's complete result: the normalized spec it
// ran (Workers zeroed — an execution knob, not a parameter), the grid
// dimensions, and one result block per workload source. Encoding the
// same manifest always yields the same bytes, and the runner fills every
// field deterministically, so one spec + seed pins one JSON document
// regardless of worker count or host.
type Manifest struct {
	// Spec echoes the normalized spec, for self-contained archives.
	Spec Spec `json:"spec"`
	// Grid summarises the executed dimensions.
	Grid GridSummary `json:"grid"`
	// Scenarios holds per-source results, in plan order.
	Scenarios []ScenarioResult `json:"scenarios"`
}

// GridSummary is the executed grid's shape.
type GridSummary struct {
	// Sources × Policies × Capacities = Cells.
	Sources    int `json:"sources"`
	Policies   int `json:"policies"`
	Capacities int `json:"capacities"`
	Cells      int `json:"cells"`
}

// ScenarioResult is one workload source's slice of the grid: the
// source's identity block (its fields sit inline in the JSON), then the
// policy rows.
type ScenarioResult struct {
	SourceInfo
	// Policies holds one row of cells per policy, in plan order.
	Policies []PolicyGrid `json:"policies"`
}

// PolicyGrid is one policy's row: a cell per swept capacity.
type PolicyGrid struct {
	// Policy is the display name ("STP^1.4", "LRU", ...).
	Policy string `json:"policy"`
	// Cells follow the spec's capacity order.
	Cells []Cell `json:"cells"`
}

// Cell is one replay: a (source, policy, capacity) grid point.
type Cell struct {
	// CapacityFraction is the swept fraction of referenced bytes.
	CapacityFraction float64 `json:"capacityFraction"`
	// CapacityBytes is the resulting cache size in bytes.
	CapacityBytes int64 `json:"capacityBytes"`
	// Reads, ReadHits and ReadMisses count read accesses; the paper's
	// figure of merit is ReadMisses/Reads.
	Reads      int64 `json:"reads"`
	ReadHits   int64 `json:"readHits"`
	ReadMisses int64 `json:"readMisses"`
	// WriteInserts counts writes landing in the cache.
	WriteInserts int64 `json:"writeInserts"`
	// Evictions counts migrations out of the cache.
	Evictions int64 `json:"evictions"`
	// StreamThroughs counts accesses to files too big to ever be
	// resident at this capacity.
	StreamThroughs int64 `json:"streamThroughs"`
	// BytesRead and BytesMissed are the byte-weighted counterparts.
	BytesRead   int64 `json:"bytesRead"`
	BytesMissed int64 `json:"bytesMissed"`
	// MissRatio is ReadMisses/Reads; ByteMissRatio is
	// BytesMissed/BytesRead.
	MissRatio     float64 `json:"missRatio"`
	ByteMissRatio float64 `json:"byteMissRatio"`
	// PersonMinutesPerDay is the §2.3 human cost: read misses times
	// ExtraTapeLatency, per trace day.
	PersonMinutesPerDay float64 `json:"personMinutesPerDay"`
}

// EncodeJSON renders the manifest as indented JSON with a trailing
// newline — the byte-stable machine-readable form migexp writes.
func (m *Manifest) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
