package main

import (
	"testing"
	"time"
)

// TestSelfTime covers the cases self time must get right: nested
// children, siblings, overlapping (parallel) siblings, and a child that
// outlives its parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.a", Start: 10, End: 40}, // has a nested child
		{ID: 3, Parent: 2, Name: "trace.b", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "core.c", Start: 50, End: 70}, // overlaps its sibling 5
		{ID: 5, Parent: 1, Name: "dist.d", Start: 60, End: 80},
		{ID: 6, Parent: 1, Name: "serve.e", Start: 90, End: 120}, // sticks out past the parent
	}
	for i := range spans {
		spans[i].Trace = "w/0"
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - 30 - 30 - 10, // [10,40] + union [50,80] + clipped [90,100]
		2: 30 - 10,
		3: 10,
		4: 20,
		5: 20,
		6: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := unattributedShare(spans, 1); got != 0.30 {
		t.Errorf("unattributed share = %v, want 0.30", got)
	}
	by := layerSelfTimes(spans, "w/0", 1)
	if by["core"] != 40 || by["trace"] != 10 || by["dist"] != 20 || by["serve"] != 30 || len(by) != 4 {
		t.Errorf("layer self times = %v", by)
	}
}

// TestTracerRecordsParentAndTrace checks what spans.json promises: every
// span has a name, start, end, parent and trace id.
func TestTracerRecordsParentAndTrace(t *testing.T) {
	tr := newTracer()
	root := tr.root("pipe-report/0", "pipe-report")
	d, err := root.do("core.accumulate", func() error { time.Sleep(time.Millisecond); return nil })
	if err != nil || d < time.Millisecond {
		t.Fatalf("do = %v, %v", d, err)
	}
	root.end()
	got := tr.snapshot()
	if len(got) != 2 {
		t.Fatalf("%d spans, want 2", len(got))
	}
	c := got[1]
	if c.Parent != got[0].ID || c.Trace != "pipe-report/0" || c.Name != "core.accumulate" || c.End <= c.Start {
		t.Errorf("child span = %+v", c)
	}
	if c.layer() != "core" {
		t.Errorf("layer = %q", c.layer())
	}
	// A nil tracer times the call but records nothing.
	if d, _ := (spanRef{}).do("x", func() error { time.Sleep(time.Millisecond); return nil }); d < time.Millisecond {
		t.Errorf("untraced do = %v", d)
	}
}
