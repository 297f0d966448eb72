package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"filemig/internal/core"
	"filemig/internal/trace"
)

// The KindB2Shard glue: one b2 trace file's block-indexed analysis
// distributed shard by shard. The coordinator cuts contiguous block
// ranges from the trailing index (core.B2TaskRanges) without decoding
// anything; workers open the same file, decode only their range, and
// return a journaled s1 snapshot; the coordinator folds snapshots in
// range order (core.SnapshotMerger), which reproduces the
// single-process analysis byte-for-byte. Workers must see the trace at
// the same path — same host, or a shared filesystem.

// b2Plan is the KindB2Shard plan blob.
type b2Plan struct {
	// Path is the b2 trace file as workers will open it.
	Path string `json:"path"`
	// Size, Blocks and Records cross-check that a worker opened the same
	// file the coordinator indexed.
	Size    int64 `json:"size"`
	Blocks  int   `json:"blocks"`
	Records int64 `json:"records"`
	// DedupWindow and Shard configure each shard's analysis.
	DedupWindow time.Duration `json:"dedupWindow"`
	Shard       time.Duration `json:"shard,omitempty"`
}

// b2Task is one task payload: the block range [Lo, Hi).
type b2Task struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// B2ShardConfig describes one distributed b2 analysis.
type B2ShardConfig struct {
	// Path is the b2 trace file, as workers will open it.
	Path string
	// File is the coordinator's open handle on Path, used only for index
	// arithmetic — the coordinator never decodes a block.
	File *trace.B2File
	// Size is Path's size in bytes.
	Size int64
	// DedupWindow is the per-file dedup window (callers pass
	// workload.DedupWindow for the paper's analysis).
	DedupWindow time.Duration
	// ShardDuration is the task cut width; zero means the core default.
	ShardDuration time.Duration
}

// B2ShardCoordinator distributes one b2 file's analysis over workers;
// its embedded Coordinator serves the shards (Serve) and counts those
// restored from the journal (Resumed).
type B2ShardCoordinator struct {
	*Coordinator
	merger *core.SnapshotMerger
}

// NewB2ShardCoordinator builds a coordinator serving cfg's block-range
// shards.
func NewB2ShardCoordinator(cfg B2ShardConfig, opts Options) (*B2ShardCoordinator, error) {
	ranges := core.B2TaskRanges(cfg.File, cfg.ShardDuration)
	if len(ranges) == 0 {
		return nil, fmt.Errorf("dist: %s holds no blocks to analyse", cfg.Path)
	}
	blob, err := json.Marshal(b2Plan{
		Path:        cfg.Path,
		Size:        cfg.Size,
		Blocks:      cfg.File.NumBlocks(),
		Records:     cfg.File.NumRecords(),
		DedupWindow: cfg.DedupWindow,
		Shard:       cfg.ShardDuration,
	})
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(ranges))
	for i, r := range ranges {
		if payloads[i], err = json.Marshal(b2Task{Lo: r[0], Hi: r[1]}); err != nil {
			return nil, err
		}
	}
	b := &B2ShardCoordinator{merger: core.NewSnapshotMerger()}
	b.Coordinator, err = NewCoordinator(Config{
		Kind:     KindB2Shard,
		PlanHash: fmt.Sprintf("%x", sha256.Sum256(blob)),
		Plan:     blob,
		Payloads: payloads,
		Handle: func(id int, result []byte) error {
			return b.merger.Add(bytes.NewReader(result))
		},
	}, opts)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Analysis returns the merged analysis — state-identical to one process
// analysing the whole file. Call only after Serve returns nil.
func (b *B2ShardCoordinator) Analysis() (*core.Analysis, error) {
	return b.merger.Analysis()
}

// newB2Exec builds the worker-side KindB2Shard executor: open the
// plan's file per task, decode only the task's blocks, and return the
// journaled snapshot. Opening per task keeps the executor stateless —
// no handle outlives a task — at the cost of re-reading the small
// trailing index.
func newB2Exec(blob []byte) (ExecFunc, error) {
	var p b2Plan
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("dist: bad b2 plan: %w", err)
	}
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		var t b2Task
		if err := json.Unmarshal(payload, &t); err != nil {
			return nil, fmt.Errorf("dist: bad b2 task payload: %w", err)
		}
		f, err := os.Open(p.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if st.Size() != p.Size {
			return nil, fmt.Errorf("dist: %s is %d bytes here, %d at the coordinator — workers must see the same trace file",
				p.Path, st.Size(), p.Size)
		}
		bf, err := trace.OpenB2File(f, st.Size())
		if err != nil {
			return nil, err
		}
		if bf.NumBlocks() != p.Blocks || bf.NumRecords() != p.Records {
			return nil, fmt.Errorf("dist: %s indexes %d blocks/%d records here, %d/%d at the coordinator",
				p.Path, bf.NumBlocks(), bf.NumRecords(), p.Blocks, p.Records)
		}
		a, err := core.AccumulateB2Blocks(ctx, core.StreamOptions{
			Options:       core.Options{DedupWindow: p.DedupWindow, Journal: true},
			ShardDuration: p.Shard,
			Workers:       1,
		}, bf, t.Lo, t.Hi)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}, nil
}
