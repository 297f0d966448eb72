package workload

import (
	"cmp"
	"container/heap"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"filemig/internal/device"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// The k-way merge GenerateStream used before the flat plan, kept as the
// reference: one cursor per file over its stably time-sorted accesses,
// one over the stably time-sorted error records, merged through
// container/heap on (time, sequence). Its error cursor numbers records
// by their position in the sorted run, above every file sequence number.

type refCursor interface {
	empty() bool
	at() time.Time
	seq() int32
	pop() trace.Record
}

type refAccess struct {
	at  time.Time
	seq int32
	op  uint8
	dev uint8
}

type refFileCursor struct {
	accs  []refAccess
	i     int
	size  units.Bytes
	mss   string
	local string
	uid   uint32
}

func (c *refFileCursor) empty() bool   { return c.i >= len(c.accs) }
func (c *refFileCursor) at() time.Time { return c.accs[c.i].at }
func (c *refFileCursor) seq() int32    { return c.accs[c.i].seq }

func (c *refFileCursor) pop() trace.Record {
	pa := &c.accs[c.i]
	c.i++
	return trace.Record{
		Start:     pa.at,
		Op:        trace.Op(pa.op),
		Device:    device.Class(pa.dev),
		Size:      c.size,
		MSSPath:   c.mss,
		LocalPath: c.local,
		UserID:    c.uid,
	}
}

type refErrCursor struct {
	recs    []trace.Record
	i       int
	baseSeq int32
}

func (c *refErrCursor) empty() bool   { return c.i >= len(c.recs) }
func (c *refErrCursor) at() time.Time { return c.recs[c.i].Start }
func (c *refErrCursor) seq() int32    { return c.baseSeq + int32(c.i) }

func (c *refErrCursor) pop() trace.Record {
	r := c.recs[c.i]
	c.i++
	return r
}

type refMerge struct{ cursors []refCursor }

func (m *refMerge) Len() int { return len(m.cursors) }

func (m *refMerge) Less(a, b int) bool {
	ca, cb := m.cursors[a], m.cursors[b]
	ta, tb := ca.at(), cb.at()
	if !ta.Equal(tb) {
		return ta.Before(tb)
	}
	return ca.seq() < cb.seq()
}

func (m *refMerge) Swap(a, b int) { m.cursors[a], m.cursors[b] = m.cursors[b], m.cursors[a] }
func (m *refMerge) Push(x any)    { m.cursors = append(m.cursors, x.(refCursor)) }

func (m *refMerge) Pop() any {
	c := m.cursors[len(m.cursors)-1]
	m.cursors = m.cursors[:len(m.cursors)-1]
	return c
}

func (m *refMerge) Next() (trace.Record, error) {
	if len(m.cursors) == 0 {
		return trace.Record{}, io.EOF
	}
	c := m.cursors[0]
	rec := c.pop()
	if c.empty() {
		heap.Pop(m)
	} else {
		heap.Fix(m, 0)
	}
	return rec, nil
}

// referenceMerge rebuilds the k-way merge's input from a flat plan — seq
// is the emission index, so sorting on it recovers the order planFile
// and planErrors appended in — and runs the merge.
func referenceMerge(ps *planStream) trace.Stream {
	emitted := slices.Clone(ps.plan)
	sort.Slice(emitted, func(a, b int) bool { return emitted[a].seq < emitted[b].seq })
	m := &refMerge{}
	files := map[int32]*refFileCursor{}
	var errs []trace.Record
	var baseSeq int32
	for _, p := range emitted {
		row := &ps.rows[p.row]
		at := time.Unix(0, p.at).In(ps.loc)
		if p.err != 0 {
			errs = append(errs, trace.Record{Start: at, Op: trace.Op(p.op), Device: device.Class(p.dev),
				Err: trace.ErrCode(p.err), MSSPath: row.mss, LocalPath: row.local, UserID: row.uid})
			continue
		}
		baseSeq = p.seq + 1
		c := files[p.row]
		if c == nil {
			c = &refFileCursor{size: row.size, mss: row.mss, local: row.local, uid: row.uid}
			files[p.row] = c
			m.cursors = append(m.cursors, c)
		}
		c.accs = append(c.accs, refAccess{at: at, seq: p.seq, op: p.op, dev: p.dev})
	}
	for _, c := range m.cursors {
		accs := c.(*refFileCursor).accs
		sort.SliceStable(accs, func(a, b int) bool { return accs[a].at.Before(accs[b].at) })
	}
	if len(errs) > 0 {
		sort.SliceStable(errs, func(a, b int) bool { return errs[a].Start.Before(errs[b].Start) })
		m.cursors = append(m.cursors, &refErrCursor{recs: errs, baseSeq: baseSeq})
	}
	heap.Init(m)
	return m
}

// TestFlatPlanMatchesKWayMerge runs both orderings over configurations
// built to collide: a week of trace, thousands of files, bursts off so
// whole seconds tie across files, and enough error requests that they
// land on the same instants as file accesses and as each other.
func TestFlatPlanMatchesKWayMerge(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultConfig(0.01, seed)
		cfg.Days = 7
		cfg.Bursts = false
		cfg.ErrorFraction = 0.3
		cfg.DuplicateMean = 1
		sr, err := GenerateStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := sr.Stream.(*planStream)
		crossFile, withError, amongErrors := 0, 0, 0
		for i := 1; i < len(ps.plan); i++ {
			a, b := ps.plan[i-1], ps.plan[i]
			switch {
			case a.at != b.at || a.row == b.row:
			case a.err != 0 && b.err != 0:
				amongErrors++
			case a.err != 0 || b.err != 0:
				withError++
			default:
				crossFile++
			}
		}
		if crossFile < 50 || withError < 50 || amongErrors < 5 {
			t.Fatalf("seed %d: %d cross-file, %d file/error and %d error/error ties in %d records; the config no longer collides",
				seed, crossFile, withError, amongErrors, len(ps.plan))
		}
		ref := referenceMerge(ps)
		for i := 0; ; i++ {
			want, werr := ref.Next()
			got, gerr := ps.Next()
			if werr != gerr {
				t.Fatalf("seed %d: record %d: flat plan err %v, k-way merge err %v", seed, i, gerr, werr)
			}
			if werr == io.EOF {
				if i != sr.Planned {
					t.Fatalf("seed %d: %d records, Planned %d", seed, i, sr.Planned)
				}
				break
			}
			if got != want {
				t.Fatalf("seed %d: record %d differs:\n flat plan  %+v\n k-way merge %+v", seed, i, got, want)
			}
		}
	}
}

func TestPlannedEntryIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(planned{}); got != 24 {
		t.Errorf("planned is %d bytes, want 24: the resident plan is sized by it", got)
	}
}

// TestPlanSeqIsEmissionIndex pins the invariant sortPlan relies on: every
// entry's seq is its index in the plan as built, so a stable sort on at
// alone reproduces the (at, seq) order.
func TestPlanSeqIsEmissionIndex(t *testing.T) {
	for _, sc := range Scenarios() {
		_, ps, _, err := planTrace(sc.Configure(0.003, 1))
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(ps.plan) == 0 {
			t.Fatalf("%s: empty plan", sc.Name)
		}
		for i, p := range ps.plan {
			if p.seq != int32(i) {
				t.Fatalf("%s: plan[%d].seq = %d", sc.Name, i, p.seq)
			}
		}
	}
}

// TestSortPlanMatchesReferences checks the radix sort against a
// comparison sort on (at, seq) and, record for record, against the k-way
// merge, on random plans built the way planTrace builds them: file
// accesses first, in any row order, error requests last, one row each.
func TestSortPlanMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -1, 0, 1, math.MaxInt64}
	instant := map[string]func(i int) int64{
		"duplicates": func(int) int64 { return trace.Epoch.UnixNano() + int64(rng.Intn(16))*int64(time.Second) },
		"pre-1970":   func(int) int64 { return int64(rng.Intn(64)-48) * int64(365*24*time.Hour) },
		"extremes":   func(int) int64 { return extremes[rng.Intn(len(extremes))] },
		"any":        func(int) int64 { return int64(rng.Uint64()) },
		"all-equal":  func(int) int64 { return -42 },
		"ascending":  func(i int) int64 { return int64(i) << 9 },
	}
	names := make([]string, 0, len(instant))
	for name := range instant {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, n := range []int{0, 1, 2, 3, 255, 256, 1000, 5000} {
			ps := randomPlan(rng, n, instant[name])
			want := slices.Clone(ps.plan)
			slices.SortFunc(want, func(a, b planned) int {
				if c := cmp.Compare(a.at, b.at); c != 0 {
					return c
				}
				return cmp.Compare(a.seq, b.seq)
			})
			ref := referenceMerge(ps)
			ps.plan = sortPlan(ps.plan)
			if !slices.Equal(ps.plan, want) {
				t.Fatalf("%s/n=%d: radix sort differs from the (at, seq) sort", name, n)
			}
			for i := 0; ; i++ {
				w, werr := ref.Next()
				g, gerr := ps.Next()
				if werr != gerr {
					t.Fatalf("%s/n=%d: record %d: radix err %v, k-way merge err %v", name, n, i, gerr, werr)
				}
				if werr == io.EOF {
					break
				}
				if g != w {
					t.Fatalf("%s/n=%d: record %d differs:\n radix  %+v\n k-way %+v", name, n, i, g, w)
				}
			}
		}
	}
}

// randomPlan builds an unsorted plan of n entries at the given instants,
// each stamped with its emission index: about a sixth are error requests,
// appended after every file access.
func randomPlan(rng *rand.Rand, n int, at func(i int) int64) *planStream {
	ps := &planStream{loc: time.UTC}
	files := 1 + n/8
	for f := 0; f < files; f++ {
		ps.rows = append(ps.rows, planRow{size: units.Bytes(f), mss: "/mss/f" + strconv.Itoa(f), uid: uint32(f)})
	}
	nerr := n / 6
	for i := 0; i < n; i++ {
		e := planned{row: int32(rng.Intn(files)), op: uint8(rng.Intn(2)), dev: uint8(rng.Intn(4))}
		if i >= n-nerr {
			e = planned{row: int32(len(ps.rows)), err: uint8(trace.ErrNoFile)}
			ps.rows = append(ps.rows, planRow{mss: "/mss/missing/f" + strconv.Itoa(i), uid: uint32(i)})
		}
		ps.plan = appendPlanned(ps.plan, e, time.Unix(0, at(i)))
	}
	return ps
}
