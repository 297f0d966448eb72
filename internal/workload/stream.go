package workload

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
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
// radix-sorted once on time, stably, so emission order breaks ties
// (sortPlan). Records themselves are assembled lazily, one at a time,
// by walking the sorted plan, with burst packing applied per hour
// bucket on the fly. Generate collects GenerateStream, so the two are
// identical record for record; TestGenerateStreamMatchesGenerate pins
// it.

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
	sr, ps, burstRng, err := planTrace(cfg)
	if err != nil {
		return nil, err
	}
	ps.plan = sortPlan(ps.plan)
	sr.Stream = ps
	if cfg.Bursts {
		mean := cfg.BurstMean
		if mean <= 0 {
			mean = meanBurstLen
		}
		sr.Stream = &burstStream{src: ps, rng: burstRng, mean: mean}
	}
	return sr, nil
}

// planTrace validates cfg and plans the whole trace in emission order:
// the namespace, the population and one flat, not yet sorted, plan. It
// also returns the RNG burst packing draws from; sr.Stream is unset.
func planTrace(cfg Config) (sr *StreamResult, ps *planStream, burstRng *rand.Rand, err error) {
	if cfg.Scale <= 0 || cfg.Scale > 1 {
		return nil, nil, nil, fmt.Errorf("workload: scale %v out of (0,1]", cfg.Scale)
	}
	if cfg.Days < 7 {
		return nil, nil, nil, fmt.Errorf("workload: need at least 7 days, got %d", cfg.Days)
	}
	if cfg.Files < 1 || cfg.Users < 1 {
		return nil, nil, nil, fmt.Errorf("workload: files (%d) and users (%d) must be positive", cfg.Files, cfg.Users)
	}
	if cfg.Start.IsZero() {
		cfg.Start = trace.Epoch
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	treeRng := rand.New(rand.NewSource(master.Int63()))
	popRng := rand.New(rand.NewSource(master.Int63()))
	planRng := rand.New(rand.NewSource(master.Int63()))
	errRng := rand.New(rand.NewSource(master.Int63()))
	burstRng = rand.New(rand.NewSource(master.Int63()))

	// Namespace scaled to keep the paper's ~6.3 files/directory.
	nsCfg := namespace.DefaultConfig(1.0, treeRng.Int63())
	nsCfg.Dirs = maxInt(1, cfg.Files*143245/PaperFiles)
	nsCfg.Files = cfg.Files
	if nsCfg.Dirs < nsCfg.MaxDepth+1 {
		nsCfg.MaxDepth = maxInt(1, nsCfg.Dirs-1)
	}
	tree, err := namespace.Generate(nsCfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("workload: namespace: %v", err)
	}

	pop := NewPopulation(cfg.Files, cfg.Users, popRng)
	pop.ScaleSizes(cfg.SizeScale)
	for i := range pop.Files {
		tree.AddBytes(i, pop.Files[i].Size)
	}
	rhythm := NewShapedRhythm(cfg.Start, cfg.Days, cfg.Holidays, cfg.ReadGrowth, cfg.DiurnalSharpness)

	// File order, shared RNG, one flat plan. Each entry carries its eager
	// emission sequence number, which is its index in the plan as built
	// (TestPlanSeqIsEmissionIndex), and error records were emitted after
	// every file record, so a stable sort on at alone is exactly the order
	// a sort on (at, seq) gives.
	g := &generator{cfg: cfg, rhythm: rhythm, tree: tree, pop: pop}
	ps = &planStream{loc: cfg.Start.Location(), rows: make([]planRow, 0, len(pop.Files))}
	// Every local path is a slice of one arena, sized for the longest
	// path a file can have.
	var paths strings.Builder
	paths.Grow(len(pop.Files) * (len("/usr/tmp/u/f") + digits(cfg.Users) + digits(len(pop.Files))))
	sample := len(pop.Files) / 8
	for i := range pop.Files {
		if i == sample && i > 0 {
			// Size the plan once, from the first eighth of the files, with
			// a quarter to spare for the rest's spread and the error
			// records: left to append, a plan this long is allocated
			// about four times over, in append's quarter-size steps.
			ps.plan = reserve(ps.plan, len(ps.plan)*(len(pop.Files)-i)/i*5/4)
		}
		f := &pop.Files[i]
		before := len(ps.plan)
		ps.plan = g.planFile(f, planRng, ps.plan, int32(len(ps.rows)))
		if len(ps.plan) == before {
			continue
		}
		var buf [48]byte
		local := strconv.AppendUint(append(buf[:0], "/usr/tmp/u"...), uint64(f.Owner), 10)
		local = strconv.AppendInt(append(local, "/f"...), int64(f.ID), 10)
		ps.rows = append(ps.rows, planRow{
			size:  f.Size,
			mss:   tree.FilePath(f.ID),
			local: arenaPath(&paths, local),
			uid:   f.Owner,
		})
	}
	g.planErrors(errRng, ps)
	sr = &StreamResult{Config: cfg, Population: pop, Tree: tree, Rhythm: rhythm, Planned: len(ps.plan)}
	return sr, ps, burstRng, nil
}

// sortPlan sorts plan stably by at: an LSD radix sort, one byte of the
// key per pass, that skips a pass whose byte every key shares (the top
// bytes of a years-long trace, the low byte of whole-second instants).
// Flipping the sign bit orders the keys as int64 — pre-1970 instants
// included. It returns the sorted plan, which may be the scratch buffer
// rather than the slice passed in.
func sortPlan(plan []planned) []planned {
	const flip = 1 << 63
	if len(plan) < 2 {
		return plan
	}
	var counts [8][256]int
	for i := range plan {
		k := uint64(plan[i].at) ^ flip
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	var tmp []planned
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte((uint64(plan[0].at)^flip)>>shift)] == len(plan) {
			continue
		}
		if tmp == nil {
			tmp = make([]planned, len(plan))
		}
		pos := 0
		for b, n := range c {
			c[b] = pos
			pos += n
		}
		for i := range plan {
			b := byte((uint64(plan[i].at) ^ flip) >> shift)
			tmp[c[b]] = plan[i]
			c[b]++
		}
		plan, tmp = tmp, plan
	}
	return plan
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
	offsets []float64 // packHour's scratch, reused hour to hour
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
		b.offsets = packHour(b.buf, b.offsets, hour, b.rng, b.mean, smallGapMean, smallGapFloor)
	}
	return nil
}
