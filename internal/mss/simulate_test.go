package mss

import (
	"testing"
	"time"

	"filemig/internal/device"
	"filemig/internal/stats"
	"filemig/internal/trace"
	"filemig/internal/units"
)

func mkRec(offset time.Duration, op trace.Op, dev device.Class, size units.Bytes, path string) trace.Record {
	return trace.Record{
		Start: trace.Epoch.Add(offset), Op: op, Device: dev,
		Size: size, MSSPath: path, LocalPath: "/t/x", UserID: 1,
	}
}

func TestReplayFillsLatencies(t *testing.T) {
	s := NewSimulator(DefaultConfig(1))
	recs := []trace.Record{
		mkRec(0, trace.Read, device.ClassDisk, units.Bytes(2*units.MB), "/mss/a"),
		mkRec(time.Minute, trace.Read, device.ClassSiloTape, units.Bytes(80*units.MB), "/mss/b"),
		mkRec(2*time.Minute, trace.Read, device.ClassManualTape, units.Bytes(47*units.MB), "/mss/c"),
	}
	out, err := s.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("out = %d records", len(out))
	}
	for i, r := range out {
		if r.Startup <= 0 {
			t.Errorf("record %d startup = %v, want > 0", i, r.Startup)
		}
		if r.Transfer <= 0 {
			t.Errorf("record %d transfer = %v, want > 0", i, r.Transfer)
		}
	}
	// Uncontended latency ordering: disk < silo < manual.
	if !(out[0].Startup < out[1].Startup && out[1].Startup < out[2].Startup) {
		t.Errorf("startup ordering wrong: disk=%v silo=%v manual=%v",
			out[0].Startup, out[1].Startup, out[2].Startup)
	}
	// Transfer at ~2 MB/s: 80 MB ≈ 40 s.
	if out[1].Transfer < 35*time.Second || out[1].Transfer > 45*time.Second {
		t.Errorf("80 MB silo transfer = %v, want ~40s", out[1].Transfer)
	}
}

func TestReplayInputUntouchedAndSorted(t *testing.T) {
	s := NewSimulator(DefaultConfig(2))
	recs := []trace.Record{
		mkRec(0, trace.Read, device.ClassDisk, units.Bytes(units.MB), "/mss/a"),
		mkRec(time.Second, trace.Read, device.ClassDisk, units.Bytes(units.MB), "/mss/b"),
	}
	out, err := s.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Startup != 0 || recs[1].Startup != 0 {
		t.Error("input slice was modified")
	}
	if out[1].Start.Before(out[0].Start) {
		t.Error("output not sorted")
	}
}

func TestReplayRejectsUnsorted(t *testing.T) {
	s := NewSimulator(DefaultConfig(3))
	recs := []trace.Record{
		mkRec(time.Minute, trace.Read, device.ClassDisk, units.Bytes(units.MB), "/mss/a"),
		mkRec(0, trace.Read, device.ClassDisk, units.Bytes(units.MB), "/mss/b"),
	}
	if _, err := s.Replay(recs); err == nil {
		t.Error("unsorted input should be rejected")
	}
}

func TestReplayEmpty(t *testing.T) {
	s := NewSimulator(DefaultConfig(4))
	out, err := s.Replay(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty replay: %v %v", out, err)
	}
}

func TestErrorRequestsBounceQuickly(t *testing.T) {
	s := NewSimulator(DefaultConfig(5))
	rec := mkRec(0, trace.Read, device.ClassManualTape, 0, "/mss/none")
	rec.Err = trace.ErrNoFile
	out, err := s.Replay([]trace.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Transfer != 0 {
		t.Errorf("error request transferred data: %v", out[0].Transfer)
	}
	if out[0].Startup > 10*time.Second {
		t.Errorf("error bounce = %v, want fast (no device touched)", out[0].Startup)
	}
}

func TestMountReuseWithinBurst(t *testing.T) {
	s := NewSimulator(DefaultConfig(6))
	// Five back-to-back reads of the same tape file: the cartridge mounts
	// once; followers skip the robot.
	var recs []trace.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, mkRec(time.Duration(i)*5*time.Second,
			trace.Read, device.ClassSiloTape, units.Bytes(50*units.MB), "/mss/same"))
	}
	if _, err := s.Replay(recs); err != nil {
		t.Fatal(err)
	}
	done, skipped := s.MountStats()
	if done != 1 {
		t.Errorf("mounts done = %d, want 1", done)
	}
	if skipped != 4 {
		t.Errorf("mounts skipped = %d, want 4", skipped)
	}
}

func TestQueueingUnderBurst(t *testing.T) {
	// Ten simultaneous manual-tape requests against 2 operators: waits
	// must stack up, producing the long tail of Figure 3.
	cfg := DefaultConfig(7)
	s := NewSimulator(cfg)
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, mkRec(time.Duration(i)*time.Second,
			trace.Read, device.ClassManualTape, units.Bytes(20*units.MB),
			"/mss/m"+string(rune('a'+i))))
	}
	out, err := s.Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	var lat stats.CDF
	for _, r := range out {
		lat.Add(r.Startup.Seconds())
	}
	if lat.Quantile(1) < 400 {
		t.Errorf("max manual latency under burst = %vs, want > 400s tail", lat.Quantile(1))
	}
	if lat.Quantile(0) > 400 {
		t.Errorf("min manual latency = %vs — even the first should be ~100-300s", lat.Quantile(0))
	}
}

func TestDiskFastPath(t *testing.T) {
	s := NewSimulator(DefaultConfig(8))
	out, err := s.Replay([]trace.Record{
		mkRec(0, trace.Read, device.ClassDisk, units.Bytes(3750*units.KB), "/mss/d"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uncontended disk: startup ≈ MSCP service (~2.5s) + ms seek. The
	// paper's 4s median includes light queueing.
	if out[0].Startup > 15*time.Second {
		t.Errorf("uncontended disk startup = %v, want seconds", out[0].Startup)
	}
	if out[0].Transfer < time.Second || out[0].Transfer > 3*time.Second {
		t.Errorf("3.75 MB at 2 MB/s = %v, want ~1.9s", out[0].Transfer)
	}
}

func TestDeterministicReplay(t *testing.T) {
	mk := func() []trace.Record {
		s := NewSimulator(DefaultConfig(42))
		var recs []trace.Record
		for i := 0; i < 50; i++ {
			dev := device.ClassDisk
			if i%3 == 1 {
				dev = device.ClassSiloTape
			} else if i%3 == 2 {
				dev = device.ClassManualTape
			}
			recs = append(recs, mkRec(time.Duration(i)*7*time.Second,
				trace.Read, dev, units.Bytes(10*units.MB), "/mss/f"+string(rune('a'+i%26))))
		}
		out, err := s.Replay(recs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Startup != b[i].Startup || a[i].Transfer != b[i].Transfer {
			t.Fatalf("record %d latencies differ across identical seeds", i)
		}
	}
}

func TestResourceStatsExposed(t *testing.T) {
	s := NewSimulator(DefaultConfig(9))
	if _, err := s.Replay([]trace.Record{
		mkRec(0, trace.Read, device.ClassSiloTape, units.Bytes(units.MB), "/mss/a"),
	}); err != nil {
		t.Fatal(err)
	}
	st := s.ResourceStats()
	if len(st) != 8 {
		t.Fatalf("stats = %d resources, want 8", len(st))
	}
	names := []string{"mscp", "disk", "silo-drive", "silo-robot",
		"manual-drive", "operator", "optical-drive", "optical-robot"}
	for i, want := range names {
		if st[i].Name != want {
			t.Errorf("stats[%d] = %q, want %q", i, st[i].Name, want)
		}
	}
	if st[0].Arrivals != 1 {
		t.Errorf("mscp arrivals = %d, want 1", st[0].Arrivals)
	}
}

func TestCatalogDeterministic(t *testing.T) {
	c := NewCatalog(6000)
	if c.Cartridge("/mss/x") != c.Cartridge("/mss/x") {
		t.Error("cartridge assignment must be deterministic")
	}
	if c.OffsetFrac("/mss/x") != c.OffsetFrac("/mss/x") {
		t.Error("offset must be deterministic")
	}
	f := c.OffsetFrac("/mss/y")
	if f < 0 || f >= 1 {
		t.Errorf("offset = %v, want [0,1)", f)
	}
	if NewCatalog(0).Cartridge("/a") != 0 {
		t.Error("degenerate catalog should map to cartridge 0")
	}
	// Different paths should spread across cartridges.
	seen := map[int]bool{}
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"} {
		seen[c.Cartridge(p)] = true
	}
	if len(seen) < 4 {
		t.Errorf("8 paths landed on %d cartridges — hash too weak", len(seen))
	}
}

func TestMountCache(t *testing.T) {
	m := NewMountCache(2)
	if m.Mounted(1) {
		t.Error("nothing mounted yet")
	}
	m.Mount(1)
	m.Mount(2)
	if !m.Mounted(1) || !m.Mounted(2) {
		t.Error("both cartridges should be mounted")
	}
	m.Mount(3) // evicts 1 (FIFO)
	if m.Mounted(1) {
		t.Error("cartridge 1 should have been evicted")
	}
	if !m.Mounted(3) || !m.Mounted(2) {
		t.Error("2 and 3 should be mounted")
	}
	m.Mount(2) // re-mount is a no-op
	if m.Len() != 2 {
		t.Errorf("len = %d, want 2", m.Len())
	}
	if NewMountCache(0).cap != 1 {
		t.Error("zero cap should clamp to 1")
	}
}

func TestTopologyDescribed(t *testing.T) {
	links := Topology()
	if len(links) < 5 {
		t.Fatalf("topology has %d links, want the Figure 2 set", len(links))
	}
	foundLDN, foundMASnet := false, false
	for _, l := range links {
		if l.Via == "LDN (high-speed direct data path)" {
			foundLDN = true
		}
		if l.Via == "MASnet (hyperchannel control path)" {
			foundMASnet = true
		}
	}
	if !foundLDN || !foundMASnet {
		t.Error("topology must include both the LDN data path and MASnet control path")
	}
}
