package core

import (
	"bytes"
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/trace"
	"filemig/internal/units"
)

// fuzzSeedRecords builds a tiny hand-written trace exercising both ops,
// several device classes, an error record, repeated paths (dedup), and
// a startup latency, so the seed snapshots cover every codec section.
func fuzzSeedRecords() []trace.Record {
	at := func(h int) time.Time { return trace.Epoch.Add(time.Duration(h) * time.Hour) }
	return []trace.Record{
		{Start: at(0), Op: trace.Write, Device: device.ClassDisk, Size: 1 << 20,
			Startup: 4 * time.Second, MSSPath: "/mss/u1/a", LocalPath: "/tmp/a", UserID: 7},
		{Start: at(1), Op: trace.Read, Device: device.ClassSiloTape, Size: 3 << 20,
			Startup: 85 * time.Second, MSSPath: "/mss/u1/a", LocalPath: "/tmp/a", UserID: 7},
		{Start: at(2), Op: trace.Read, Device: device.ClassManualTape, Size: 2 << 10,
			Err: trace.ErrNoFile, MSSPath: "/mss/u2/gone", LocalPath: "/tmp/g", UserID: 9},
		{Start: at(3), Op: trace.Read, Device: device.ClassSiloTape, Size: 3 << 20,
			MSSPath: "/mss/u1/a", LocalPath: "/tmp/a", UserID: 7}, // deduped: < 8 h after the last read
		{Start: at(30), Op: trace.Write, Device: device.ClassDisk, Size: 5 << 20,
			MSSPath: "/mss/u2/b", LocalPath: "/tmp/b", UserID: 9},
	}
}

// FuzzSnapshotRoundTrip is the robustness gate for the s1 decoder:
// arbitrary input must either fail to load or load into an analysis
// that re-saves and re-loads byte-stably. Panics, hangs, and
// silently-inconsistent loads are the bugs this hunts.
func FuzzSnapshotRoundTrip(f *testing.F) {
	recs := fuzzSeedRecords()
	for _, cut := range []int{len(recs), 2, 0} {
		a := New(Options{Journal: true})
		a.AddAll(recs[:cut])
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(trace.SnapshotHeader + "\n"))
	f.Add([]byte("#filemig-trace b1 epoch=654739200\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := MergeSnapshots(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking or hanging is not
		}
		var enc1 bytes.Buffer
		if err := a.WriteSnapshot(&enc1); err != nil {
			t.Fatalf("loaded snapshot cannot re-save: %v", err)
		}
		b, err := MergeSnapshots(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-saved snapshot cannot re-load: %v", err)
		}
		var enc2 bytes.Buffer
		if err := b.WriteSnapshot(&enc2); err != nil {
			t.Fatalf("re-loaded snapshot cannot save: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("save → load → save is not byte-stable")
		}
	})
}

// TestFuzzSeedsValid keeps the fuzz seeds honest in normal test runs:
// the valid seeds load, the invalid ones are rejected.
func TestFuzzSeedsValid(t *testing.T) {
	recs := fuzzSeedRecords()
	for i := range recs {
		if err := recs[i].Validate(); err != nil && recs[i].OK() {
			t.Fatalf("seed record %d invalid: %v", i, err)
		}
	}
	a := New(Options{Journal: true})
	a.AddAll(recs)
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := MergeSnapshots(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	if rep.Table3.GrandTotal != 5 || rep.Table3.ErrorRefs != 1 {
		t.Fatalf("seed snapshot counts wrong: %+v", rep.Table3)
	}
	if rep.Table4.NumFiles != 2 {
		t.Fatalf("seed snapshot files = %d, want 2", rep.Table4.NumFiles)
	}
	if got := units.Bytes(rep.Table3.Cells[trace.Read][device.ClassSiloTape].Bytes); got != 6<<20 {
		t.Fatalf("silo read bytes = %d", got)
	}
}
