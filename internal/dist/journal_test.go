package dist

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"filemig/internal/dist/chaos"
)

// The fault-injecting disk is a drop-in for the real one.
var _ FS = (*chaos.Disk)(nil)

// useDisk puts d under the durable write path for the rest of the test.
func useDisk(t *testing.T, d FS) {
	t.Helper()
	prev := Disk
	Disk = d
	t.Cleanup(func() { Disk = prev })
}

// TestJournalPutCutPoints is the spool put's cut-point matrix: a put
// faulted at each step of the durable write — the temporary's write,
// its fsync, the rename, the directory's fsync — by a short write, by
// ENOSPC, or by a stop right after the step, leaves a journal that,
// re-opened, holds either no entry for the task or exactly its
// payload, never a third state. A put that fails leaves no temporary
// behind.
func TestJournalPutCutPoints(t *testing.T) {
	payload := bytes.Repeat([]byte("a spooled result "), 200)
	open := func(dir string) *journal {
		t.Helper()
		j, err := openJournal(dir, "unit/v1", "unit-hash", 2)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	clean := &chaos.Disk{}
	useDisk(t, clean)
	if err := open(t.TempDir()).put(1, payload); err != nil {
		t.Fatal(err)
	}
	steps := clean.Steps
	// The plan.json write, then the spool put's four steps.
	if len(steps) != 8 || steps[4] != "write r00000001.frame" || steps[5] != "fsync r00000001.frame" ||
		steps[6] != "rename r00000001.frame" || !strings.HasPrefix(steps[7], "fsync-dir ") {
		t.Fatalf("a clean journal open and put took steps %q", steps)
	}

	for at := 5; at <= len(steps); at++ {
		for _, fault := range []chaos.DiskFault{chaos.ShortWrite, chaos.NoSpace, chaos.Stop} {
			dir, image := t.TempDir(), t.TempDir()
			j := open(dir)
			d := &chaos.Disk{At: at - 4, Fault: fault, Dir: dir, Image: image}
			useDisk(t, d)
			err := j.put(1, payload)
			if err == nil {
				t.Fatalf("step %d (%s), fault %d: the put succeeded", at, steps[at-1], fault)
			}
			if fault != chaos.Stop {
				image = dir
				if hasTemp(t, dir) {
					t.Errorf("step %d (%s), fault %d: a temporary is left behind", at, steps[at-1], fault)
				}
			} else if !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("step %d: stop fault reported %v", at, err)
			}
			useDisk(t, osFS{})
			got, ok := open(image).get(1)
			if ok && !bytes.Equal(got, payload) {
				t.Errorf("step %d (%s), fault %d: the journal holds a third state (%d bytes)", at, steps[at-1], fault, len(got))
			}
			if _, ok := open(image).get(0); ok {
				t.Errorf("step %d: task 0 appeared", at)
			}
		}
	}
}

// hasTemp reports whether dir holds a temporary of the durable write.
func hasTemp(t *testing.T, dir string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			return true
		}
	}
	return false
}
