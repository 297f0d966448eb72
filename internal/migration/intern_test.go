package migration

import (
	"strings"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// internRecords is a record mix with shared directories, root files,
// errors and path revisits — the shapes that could disturb dense ID
// assignment.
func internRecords() []trace.Record {
	base := time.Date(1990, time.October, 1, 0, 0, 0, 0, time.UTC)
	paths := []string{
		"/u/a/one", "/u/a/two", "/u/b/one", "/root1", "/u/a/one",
		"/u/c/d/deep", "/root2", "/u/b/one", "/u/c/d/deep", "/u/a/two",
	}
	recs := make([]trace.Record, 0, len(paths))
	for i, p := range paths {
		r := trace.Record{
			Start: base.Add(time.Duration(i) * 2 * time.Hour),
			Op:    trace.Read, Device: device.ClassSiloTape,
			Size: units.Bytes(1000 * (i + 1)), MSSPath: p, LocalPath: "/tmp/f", UserID: 9,
		}
		if i%3 == 1 {
			r.Op = trace.Write
		}
		if i == 4 {
			r.Err = trace.ErrNoFile // excluded: must not consume an ID
		}
		recs = append(recs, r)
	}
	return recs
}

// refAccesses is the historical map-based AccessesFromRecords, with one
// deliberate difference carried over to the interner: a root-level file
// ("/top") now lives in the "/" directory, as the core analysis always
// had it, instead of forming a singleton directory named after itself.
func refAccesses(recs []trace.Record) []Access {
	fileIDs := map[string]int{}
	dirIDs := map[string]int{}
	out := make([]Access, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		if !r.OK() {
			continue
		}
		id, ok := fileIDs[r.MSSPath]
		if !ok {
			id = len(fileIDs)
			fileIDs[r.MSSPath] = id
		}
		dir := "/"
		if j := strings.LastIndexByte(r.MSSPath, '/'); j > 0 {
			dir = r.MSSPath[:j]
		}
		did, ok := dirIDs[dir]
		if !ok {
			did = len(dirIDs)
			dirIDs[dir] = did
		}
		out = append(out, Access{
			Time: r.Start, FileID: id, Size: r.Size,
			Write: r.Op == trace.Write, DirID: did,
		})
	}
	return out
}

// TestAccessesInternerEquivalence pins the interner swap: the dense file
// and directory IDs must match the historical per-call string maps
// exactly, access by access.
func TestAccessesInternerEquivalence(t *testing.T) {
	recs := internRecords()
	got := AccessesFromRecords(recs)
	want := refAccesses(recs)
	if len(got) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestAccessesSharedInterner checks ID stability across conversions
// sharing one interner: the same path must keep its ID in both halves.
func TestAccessesSharedInterner(t *testing.T) {
	recs := internRecords()
	in := trace.NewInterner()
	first := AccessesFromRecordsInterned(in, recs[:5])
	second := AccessesFromRecordsInterned(in, recs[5:])
	whole := AccessesFromRecordsInterned(trace.NewInterner(), recs)
	both := append(append([]Access(nil), first...), second...)
	if len(both) != len(whole) {
		t.Fatalf("split conversion yielded %d accesses, want %d", len(both), len(whole))
	}
	for i := range whole {
		if both[i] != whole[i] {
			t.Fatalf("access %d = %+v via shared interner, want %+v", i, both[i], whole[i])
		}
	}
}

// refCoalesce is the historical map-based Coalesce.
func refCoalesce(recs []trace.Record, window time.Duration) CoalesceResult {
	res := CoalesceResult{Window: window}
	last := map[string]time.Time{}
	for i := range recs {
		r := &recs[i]
		if !r.OK() {
			continue
		}
		res.Requests++
		if prev, ok := last[r.MSSPath]; ok && r.Start.Sub(prev) <= window {
			res.Savable++
			res.BytesSaved += int64(r.Size)
		}
		last[r.MSSPath] = r.Start
	}
	return res
}

// TestCoalescerEquivalence pins the Coalescer against the string-keyed
// scan across windows, including reuse of one Coalescer for a sweep.
func TestCoalescerEquivalence(t *testing.T) {
	recs := internRecords()
	windows := []time.Duration{time.Hour, 5 * time.Hour, 8 * time.Hour, 48 * time.Hour}
	sweep := CoalesceSweep(recs, windows)
	for i, w := range windows {
		want := refCoalesce(recs, w)
		if got := NewCoalescer().Run(recs, w); got != want {
			t.Errorf("NewCoalescer().Run(%v) = %+v, want %+v", w, got, want)
		}
		if sweep[i] != want {
			t.Errorf("CoalesceSweep[%v] = %+v, want %+v", w, sweep[i], want)
		}
	}
	// Re-running on a shared Coalescer must fully reset between runs.
	c := NewCoalescer()
	for _, w := range []time.Duration{48 * time.Hour, time.Hour, 48 * time.Hour} {
		if got, want := c.Run(recs, w), refCoalesce(recs, w); got != want {
			t.Errorf("Coalescer.Run(%v) = %+v, want %+v", w, got, want)
		}
	}
}

// TestCoalescerSteadyStateAllocs pins the zero-allocation scan loop: a
// warmed Coalescer re-running over the same trace allocates nothing.
func TestCoalescerSteadyStateAllocs(t *testing.T) {
	recs := internRecords()
	c := NewCoalescer()
	c.Run(recs, 8*time.Hour)
	allocs := testing.AllocsPerRun(20, func() {
		c.Run(recs, 8*time.Hour)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Coalescer.Run allocates %v per run, want 0", allocs)
	}
}
