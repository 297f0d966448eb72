package workload

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"filemig/internal/device"
	"filemig/internal/namespace"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// GenerateStream is the streaming form of Generate. Planning — reference
// plans, calendar mapping, device routing, duplicates, errors — still
// happens up front (it must: the shared RNG streams are consumed in file
// order to stay deterministic), but the plan is held as one flat slice
// of 24-byte planned entries, a fifth of a materialized trace.Record,
// sorted once on (time, emission sequence). Records themselves are
// assembled lazily, one at a time, by walking the sorted plan, with
// burst packing applied per hour bucket on the fly. Generate collects
// GenerateStream, so the two are identical record for record;
// TestGenerateStreamMatchesGenerate pins it.

// StreamResult is a generated trace as a stream, plus the artefacts the
// analyzers need.
type StreamResult struct {
	Config     Config
	Stream     trace.Stream // time-sorted; latency fields zero
	Population *Population
	Tree       *namespace.Tree
	Rhythm     *Rhythm
	Planned    int // number of records the stream will yield
}

// GenerateStream synthesizes a trace as a record stream. It is
// deterministic for a given Config and yields exactly the records
// Generate would return, in the same order.
func GenerateStream(cfg Config) (*StreamResult, error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, fmt.Errorf("workload: scale %v out of (0,1]", cfg.Scale)
	}
	if cfg.Days < 7 {
		return nil, fmt.Errorf("workload: need at least 7 days, got %d", cfg.Days)
	}
	if cfg.Files < 1 || cfg.Users < 1 {
		return nil, fmt.Errorf("workload: files (%d) and users (%d) must be positive", cfg.Files, cfg.Users)
	}
	if cfg.Start.IsZero() {
		cfg.Start = trace.Epoch
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	treeRng := rand.New(rand.NewSource(master.Int63()))
	popRng := rand.New(rand.NewSource(master.Int63()))
	planRng := rand.New(rand.NewSource(master.Int63()))
	errRng := rand.New(rand.NewSource(master.Int63()))
	burstRng := rand.New(rand.NewSource(master.Int63()))

	// Namespace scaled to keep the paper's ~6.3 files/directory.
	nsCfg := namespace.DefaultConfig(1.0, treeRng.Int63())
	nsCfg.Dirs = maxInt(1, cfg.Files*143245/PaperFiles)
	nsCfg.Files = cfg.Files
	if nsCfg.Dirs < nsCfg.MaxDepth+1 {
		nsCfg.MaxDepth = maxInt(1, nsCfg.Dirs-1)
	}
	tree, err := namespace.Generate(nsCfg)
	if err != nil {
		return nil, fmt.Errorf("workload: namespace: %v", err)
	}

	pop := NewPopulation(cfg.Files, cfg.Users, popRng)
	pop.ScaleSizes(cfg.SizeScale)
	for i := range pop.Files {
		tree.AddBytes(i, pop.Files[i].Size)
	}
	rhythm := NewShapedRhythm(cfg.Start, cfg.Days, cfg.Holidays, cfg.ReadGrowth, cfg.DiurnalSharpness)

	// Plan phase: file order, shared RNG, one flat plan. Each entry
	// carries its eager emission sequence number, and error records were
	// emitted after every file record, so one sort on (at, seq) — keys
	// are unique — is exactly a stable time sort of the emission order.
	g := &generator{cfg: cfg, rhythm: rhythm, tree: tree, pop: pop}
	ps := &planStream{loc: cfg.Start.Location()}
	for i := range pop.Files {
		f := &pop.Files[i]
		before := len(ps.plan)
		ps.plan = g.planFile(f, planRng, ps.plan, int32(len(ps.rows)))
		if len(ps.plan) == before {
			continue
		}
		ps.rows = append(ps.rows, planRow{
			size:  f.Size,
			mss:   tree.FilePath(f.ID),
			local: fmt.Sprintf("/usr/tmp/u%d/f%d", f.Owner, f.ID),
			uid:   f.Owner,
		})
	}
	g.planErrors(errRng, ps)
	slices.SortFunc(ps.plan, func(a, b planned) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})

	var s trace.Stream = ps
	if cfg.Bursts {
		mean := cfg.BurstMean
		if mean <= 0 {
			mean = meanBurstLen
		}
		s = &burstStream{src: ps, rng: burstRng, mean: mean}
	}
	return &StreamResult{Config: cfg, Stream: s, Population: pop, Tree: tree,
		Rhythm: rhythm, Planned: len(ps.plan)}, nil
}

// planned is one routed raw access before record assembly: when it
// happens, which way the data moves, which device serves it, and whose
// row supplies the rest. seq is its position in the eager emission
// order: the stable-sort tie-break.
type planned struct {
	at  int64 // UnixNano
	seq int32
	row int32 // index into planStream.rows
	op  uint8 // trace.Op
	dev uint8 // device.Class
	err uint8 // trace.ErrCode
}

// planRow holds what every access of one file — or one error request —
// shares, materialized into a record only when the stream assembles it.
type planRow struct {
	size  units.Bytes
	mss   string
	local string
	uid   uint32
}

// planStream walks the sorted plan, assembling one record per entry.
type planStream struct {
	plan []planned
	rows []planRow
	loc  *time.Location
	i    int
}

// Next yields the globally next record.
func (m *planStream) Next() (trace.Record, error) {
	if m.i >= len(m.plan) {
		return trace.Record{}, io.EOF
	}
	p := &m.plan[m.i]
	m.i++
	row := &m.rows[p.row]
	return trace.Record{
		Start:     time.Unix(0, p.at).In(m.loc),
		Op:        trace.Op(p.op),
		Device:    device.Class(p.dev),
		Err:       trace.ErrCode(p.err),
		Size:      row.size,
		MSSPath:   row.mss,
		LocalPath: row.local,
		UserID:    row.uid,
	}, nil
}

// burstStream rewrites within-hour second offsets so requests arrive in
// sessions (Figure 7's knee: 90% of successive requests within 10
// seconds), buffering one hour of records at a time. Hour-level rhythm is
// untouched, and packed offsets stay inside the hour and in order, so the
// output remains time-sorted.
type burstStream struct {
	src     trace.Stream
	rng     *rand.Rand
	mean    float64 // mean session length (Config.BurstMean)
	buf     []trace.Record
	i       int
	pending trace.Record
	hasPend bool
	done    bool
}

// Next yields the next burst-packed record.
func (b *burstStream) Next() (trace.Record, error) {
	for {
		if b.i < len(b.buf) {
			r := b.buf[b.i]
			b.i++
			return r, nil
		}
		if b.done {
			return trace.Record{}, io.EOF
		}
		if err := b.fill(); err != nil {
			return trace.Record{}, err
		}
	}
}

// fill buffers the next hour's records and packs them into bursts.
func (b *burstStream) fill() error {
	b.buf = b.buf[:0]
	b.i = 0
	var hour time.Time
	if b.hasPend {
		b.buf = append(b.buf, b.pending)
		b.hasPend = false
		hour = b.pending.Start.Truncate(time.Hour)
	}
	for {
		r, err := b.src.Next()
		if err == io.EOF {
			b.done = true
			break
		}
		if err != nil {
			return err
		}
		if len(b.buf) == 0 {
			hour = r.Start.Truncate(time.Hour)
			b.buf = append(b.buf, r)
			continue
		}
		if r.Start.Truncate(time.Hour).Equal(hour) {
			b.buf = append(b.buf, r)
			continue
		}
		b.pending = r
		b.hasPend = true
		break
	}
	if len(b.buf) > 1 {
		packHour(b.buf, hour, b.rng, b.mean, smallGapMean, smallGapFloor)
	}
	return nil
}
