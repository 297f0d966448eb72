package migration

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"filemig/internal/units"
)

// victimModel is the eviction reference, written from the definition of
// a shrink rather than from the cache's victim paths: at the shrink's
// frozen clock it ranks every resident but the protected file with the
// policy's own Rank, in ascending file ID order, stable-sorts them by
// rank descending (cmp.Compare's order, a NaN lowest) and then file ID,
// and evicts the shortest prefix whose bytes cover the deficit. A
// VictimPolicy (ARC) names its victims one at a time, so the model asks
// it, as the cache does. Everything else — hits, rewrites, stream-
// throughs, prefetch, the observer hooks — follows Cache.Step's
// documented bookkeeping over a plain map.
type victimModel struct {
	p        Policy
	capacity units.Bytes
	prefetch Prefetcher
	files    map[int]*modelFile
	used     units.Bytes
	res      CacheResult
}

type modelFile struct {
	CachedFile
	prefetched bool
}

func newVictimModel(p Policy, capacity units.Bytes, prefetch Prefetcher) *victimModel {
	if ca, ok := p.(CapacityAware); ok {
		ca.SetCapacity(capacity)
	}
	return &victimModel{p: p, capacity: capacity, prefetch: prefetch, files: map[int]*modelFile{},
		res: CacheResult{Policy: p.Name(), Capacity: capacity}}
}

func (m *victimModel) step(a Access) {
	now := a.Time.UnixNano()
	m.res.Accesses++
	f := m.files[a.FileID]
	if a.Write {
		m.res.WriteInserts++
		switch {
		case f == nil:
			m.insert(a.FileID, a.Size, now, false)
		case a.Size > m.capacity:
			m.remove(f)
			m.res.StreamThroughs++
		default:
			m.used += a.Size - f.Size
			f.Size = a.Size
			m.touch(f, now)
			m.shrink(m.capacity, now, a.FileID)
		}
		return
	}
	m.res.Reads++
	m.res.BytesRead += a.Size
	if f != nil {
		m.res.ReadHits++
		if f.prefetched {
			m.res.PrefetchHits++
			f.prefetched = false
		}
		m.touch(f, now)
		return
	}
	m.res.ReadMisses++
	m.res.BytesMissed += a.Size
	m.insert(a.FileID, a.Size, now, false)
	if m.prefetch != nil {
		for _, id := range m.prefetch.Prefetch(a) {
			if m.files[id] == nil && id != a.FileID {
				m.res.Prefetches++
				m.insert(id, a.Size, now, true)
			}
		}
	}
}

func (m *victimModel) observe(f *modelFile, now int64) {
	if o, ok := m.p.(AccessObserver); ok {
		o.FileAccessed(&f.CachedFile, now)
	}
}

func (m *victimModel) touch(f *modelFile, now int64) {
	f.LastRef = now
	f.Refs++
	m.observe(f, now)
}

func (m *victimModel) insert(id int, size units.Bytes, now int64, prefetched bool) {
	if size > m.capacity {
		if !prefetched {
			m.res.StreamThroughs++
		}
		return
	}
	m.shrink(m.capacity-size, now, id)
	f := &modelFile{CachedFile{ID: id, Size: size, Inserted: now, LastRef: now, Refs: 1}, prefetched}
	m.files[id] = f
	m.used += size
	m.observe(f, now)
}

func (m *victimModel) remove(f *modelFile) {
	if o, ok := m.p.(AccessObserver); ok {
		o.FileEvicted(&f.CachedFile)
	}
	m.used -= f.Size
	delete(m.files, f.ID)
}

func (m *victimModel) shrink(target units.Bytes, now int64, protect int) {
	if v, ok := m.p.(VictimPolicy); ok {
		for m.used > target {
			id, ok := v.NextVictim(protect)
			if !ok {
				return
			}
			m.remove(m.files[id])
			m.res.Evictions++
		}
		return
	}
	if m.used <= target {
		return
	}
	type ranked struct {
		f    *modelFile
		rank float64
	}
	var cands []ranked
	for _, id := range slices.Sorted(maps.Keys(m.files)) {
		if id != protect {
			cands = append(cands, ranked{m.files[id], m.p.Rank(&m.files[id].CachedFile, now)})
		}
	}
	slices.SortStableFunc(cands, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(b.rank, a.rank), cmp.Compare(a.f.ID, b.f.ID))
	})
	for _, c := range cands {
		if m.used <= target {
			return
		}
		m.remove(c.f)
		m.res.Evictions++
	}
}

// matchesModel reports whether c stands where the model stands: the same
// counters, occupancy and resident set.
func matchesModel(c *Cache, m *victimModel) bool {
	if c.Result() != m.res || c.Used() != m.used || c.Resident() != len(m.files) {
		return false
	}
	for id := range m.files {
		if c.lookup(id) == nil {
			return false
		}
	}
	return true
}

// tournament builds every policy the benchmark grid's tournament ships,
// fresh per call. Ticks are whole seconds except for the aged policies:
// the keyed heap's time keys are float64 seconds (timeKey), and OPT's
// index wants its string sorted by time.
var tournament = []struct {
	mk     func(accs []Access) Policy
	tick   time.Duration
	sorted bool
}{
	{func([]Access) Policy { return STP{K: 1.4} }, time.Nanosecond, false},
	{func([]Access) Policy { return STP{K: 1} }, time.Nanosecond, false},
	{func([]Access) Policy { return LRU{} }, time.Second, false},
	{func([]Access) Policy { return FIFO{} }, time.Second, false},
	{func([]Access) Policy { return SAAC{} }, time.Nanosecond, false},
	{func([]Access) Policy { return LargestFirst{} }, time.Second, false},
	{func([]Access) Policy { return SmallestFirst{} }, time.Second, false},
	{func([]Access) Policy { return NewRandom(1) }, time.Second, false},
	{func(accs []Access) Policy { return NewOPT(NewFutureIndex(accs)) }, time.Second, true},
	{func([]Access) Policy { return NewARC() }, time.Second, false},
	{func([]Access) Policy { return NewLRUK(2) }, time.Second, false},
	{func([]Access) Policy { return NewGDSF() }, time.Second, false},
	{func([]Access) Policy { return NewCostAware(DefaultTapeRateMBps) }, time.Second, false},
	{func([]Access) Policy { return NewAdaptiveSTP() }, time.Nanosecond, false},
}

// FuzzVictimsMatchModel lets the fuzzer write the access string for any
// of the fourteen tournament policies: the first three bytes choose the
// policy, capacity and prefetch, and replayLockstep holds the policy's
// own victim path and ScanOnly to the model after every access.
func FuzzVictimsMatchModel(f *testing.F) {
	for i := range tournament {
		seed := make([]byte, 3+3*100)
		rand.New(rand.NewSource(int64(i))).Read(seed)
		seed[0] = byte(i)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		if len(data) > 3+3*2000 {
			data = data[:3+3*2000]
		}
		tp := tournament[int(data[0])%len(tournament)]
		accs := agedAccesses(data[3:], 64, tp.tick)
		if tp.sorted {
			slices.SortStableFunc(accs, func(a, b Access) int { return a.Time.Compare(b.Time) })
		}
		capacity := TotalReferencedBytes(accs)/[]units.Bytes{2, 7, 40}[data[1]%3] + 1
		replayLockstep(t, accs, func() Policy { return tp.mk(accs) }, capacity, data[2]&1 == 1)
	})
}
