package migration

import (
	"time"

	"filemig/internal/units"
)

// This file evaluates §6's size-split placement: "The NCAR system already
// does this by storing smaller files on magnetic disk and larger files
// only on tape. ... The dividing point between storing files on disk and
// storing them on tape is a subject for future research." PlacementSweep
// is that research: it sweeps the threshold and reports how the
// first-byte latency experienced by readers moves.

// PlacementResult is one threshold's outcome.
type PlacementResult struct {
	Threshold     units.Bytes
	Reads         int64
	DiskReads     int64 // reads served from the staging disk
	TapeReads     int64 // reads paying the tape path
	MeanFirstByte time.Duration
}

// PlacementSweep replays the access string once per threshold: files at
// or under the threshold compete for the staging disk (capacity bytes,
// STP^1.4 eviction); larger files always read from tape. diskLat and
// tapeLat are the first-byte costs of the two paths (Table 3: ~30 s and
// ~104 s at NCAR).
func PlacementSweep(accs []Access, thresholds []units.Bytes, capacity units.Bytes,
	diskLat, tapeLat time.Duration) ([]PlacementResult, error) {
	out := make([]PlacementResult, 0, len(thresholds))
	for _, th := range thresholds {
		res := PlacementResult{Threshold: th}
		cache, err := NewCache(CacheConfig{Capacity: capacity, Policy: STP{K: 1.4}})
		if err != nil {
			return nil, err
		}
		for _, a := range accs {
			small := a.Size <= th
			if a.Write {
				if small {
					cache.Step(a)
				}
				continue
			}
			res.Reads++
			if small {
				before := cache.Result().ReadHits
				cache.Step(a)
				if cache.Result().ReadHits > before {
					res.DiskReads++
					continue
				}
			}
			res.TapeReads++
		}
		if res.Reads > 0 {
			total := time.Duration(res.DiskReads)*diskLat + time.Duration(res.TapeReads)*tapeLat
			res.MeanFirstByte = total / time.Duration(res.Reads)
		}
		out = append(out, res)
	}
	return out, nil
}
