package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestInternerDenseIDs holds the table to a first-seen map[string]FileID
// reference: on a hand-written input, and on ~5 000 generated paths with
// repeats — crossing several index growths, some of them Grow's — among
// which some differ only in their last byte and some are prefixes of
// others.
func TestInternerDenseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var generated []string
	for len(generated) < 5000 {
		p := fmt.Sprintf("/model/run%d/day%d.nc", rng.Intn(50), rng.Intn(60))
		switch rng.Intn(4) {
		case 0: // a last-byte neighbour
			p = p[:len(p)-1] + string(rune('a'+rng.Intn(3)))
		case 1: // a prefix
			p = p[:1+rng.Intn(len(p))]
		}
		generated = append(generated, p)
	}
	for _, paths := range [][]string{{"/a/x", "/a/y", "/b/z", "/a/x", "/b/z", "/top"}, generated} {
		in, second := NewInterner(), NewInterner()
		second.Grow(len(paths)) // reserved once, so it never grows while interning
		slots := len(second.slots)
		ref := map[string]FileID{}
		type view struct {
			paths, pathsAt   []string
			hashes, hashesAt []uint64
		}
		var views []view
		for i, p := range paths {
			want, seen := ref[p]
			for _, miss := range []string{p + "/", p + "\x00"} {
				if _, known := ref[miss]; known {
					continue
				}
				n := in.Len()
				if id, ok := in.Lookup(miss); ok {
					t.Fatalf("Lookup(%q) = %d on a miss", miss, id)
				}
				if id, ok := in.LookupBytes([]byte(miss)); ok || in.Len() != n {
					t.Fatalf("LookupBytes(%q) = %d, %v; Len %d -> %d", miss, id, ok, n, in.Len())
				}
			}
			if id, ok := in.Lookup(p); ok != seen || id != want && seen {
				t.Fatalf("Lookup(%q) = %d, %v; reference %d, %v", p, id, ok, want, seen)
			}
			if id, ok := in.LookupBytes([]byte(p)); ok != seen || id != want && seen {
				t.Fatalf("LookupBytes(%q) = %d, %v; reference %d, %v", p, id, ok, want, seen)
			}
			if !seen {
				want = FileID(len(ref))
				ref[p] = want
			}
			if id := in.Intern(p); id != want {
				t.Fatalf("Intern(%q) = %d, want %d", p, id, want)
			}
			if id := second.InternHashed(p, in.Hashes()[want]); id != want {
				t.Fatalf("InternHashed(%q) = %d, want %d", p, id, want)
			}
			if i%97 == 0 {
				in.Grow(i / 2) // re-slots a table already holding paths, as a fold's reserve does
				ps, hs := in.Paths(), in.Hashes()
				views = append(views, view{ps, slices.Clone(ps), hs, slices.Clone(hs)})
			}
		}
		if in.Len() != len(ref) || second.Len() != len(ref) {
			t.Fatalf("Len = %d and %d, want %d", in.Len(), second.Len(), len(ref))
		}
		if len(second.slots) != slots {
			t.Fatalf("a table grown for %d paths re-slotted from %d to %d slots while interning them", len(paths), slots, len(second.slots))
		}
		for id, p := range in.Paths() {
			if ref[p] != FileID(id) {
				t.Fatalf("Path(%d) = %q, reference ID %d", id, p, ref[p])
			}
			if got, ok := second.Lookup(p); !ok || got != FileID(id) {
				t.Fatalf("second table Lookup(%q) = %d, %v; want %d", p, got, ok, id)
			}
		}
		for _, v := range views {
			if !slices.Equal(v.paths, v.pathsAt) || !slices.Equal(v.hashes, v.hashesAt) {
				t.Fatalf("a %d-path view changed under later interning", len(v.pathsAt))
			}
		}
	}
}

func TestInternerDirDerivation(t *testing.T) {
	in := NewInterner()
	// Dirs are numbered in file-first-seen order: /a, /b, then / (root).
	in.Intern("/a/x")
	in.Intern("/b/z")
	in.Intern("/a/y")
	in.Intern("/top") // LastIndexByte == 0 → root
	if in.NumDirs() != 3 {
		t.Fatalf("NumDirs = %d, want 3", in.NumDirs())
	}
	cases := []struct {
		path string
		dir  string
	}{
		{"/a/x", "/a"}, {"/a/y", "/a"}, {"/b/z", "/b"}, {"/top", "/"},
	}
	for _, c := range cases {
		id := in.Intern(c.path)
		if got := in.DirPath(in.Dir(id)); got != c.dir {
			t.Fatalf("DirPath(Dir(%q)) = %q, want %q", c.path, got, c.dir)
		}
	}
	if in.Dir(in.Intern("/a/x")) != in.Dir(in.Intern("/a/y")) {
		t.Fatal("files of one directory got different DirIDs")
	}
}

func TestInternBytesMatchesIntern(t *testing.T) {
	in := NewInterner()
	a := in.Intern("/model/run1/day1")
	b := in.InternBytes([]byte("/model/run1/day1"))
	if a != b {
		t.Fatalf("InternBytes diverged from Intern: %d vs %d", b, a)
	}
	if got := in.Canonical([]byte("/model/run1/day1")); got != "/model/run1/day1" {
		t.Fatalf("Canonical = %q", got)
	}
}

// TestInternBytesZeroAlloc pins the hot-path guarantee: resolving an
// already-seen path — interned from bytes, from a string with its hash,
// or looked up either way — performs no allocation, whatever the path's
// length.
func TestInternBytesZeroAlloc(t *testing.T) {
	in := NewInterner()
	s := "/climate/ccm2/run7/history/1992/day3.nc"
	p := []byte(s)
	in.InternBytes(p)
	h := in.Hashes()[0]
	for _, c := range []struct {
		name string
		hit  func() FileID
	}{
		{"InternBytes", func() FileID { return in.InternBytes(p) }},
		{"InternHashed", func() FileID { return in.InternHashed(s, h) }},
		{"Lookup", func() FileID { id, _ := in.Lookup(s); return id }},
		{"LookupBytes", func() FileID { id, _ := in.LookupBytes(p); return id }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if c.hit() != 0 {
				t.Fatalf("%s: unexpected id", c.name)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state %s allocates %v per run, want 0", c.name, allocs)
		}
	}
}

// TestReaderInterning verifies both codec readers hand back one shared
// canonical string for every repetition of a path: the decoded records'
// MSSPath fields for the same path must share backing storage (string
// equality plus identical data pointers via map identity of the interner).
func TestReaderInterning(t *testing.T) {
	base := sampleRecords()
	// Repeat the same two paths many times.
	recs := make([]Record, 0, 40)
	for i := 0; i < 20; i++ {
		r := base[i%2]
		r.Start = Epoch.Add(time.Duration(500+i) * time.Second)
		recs = append(recs, r)
	}
	for _, f := range []Format{FormatASCII, FormatBinary} {
		var buf bytes.Buffer
		if err := WriteAllFormat(&buf, recs, f); err != nil {
			t.Fatalf("%v: WriteAllFormat: %v", f, err)
		}
		in := NewInterner()
		var src Stream
		if f == FormatBinary {
			src = NewBinaryReaderInterned(bytes.NewReader(buf.Bytes()), in)
		} else {
			src = NewReaderInterned(bytes.NewReader(buf.Bytes()), in)
		}
		got, err := Collect(src)
		if err != nil {
			t.Fatalf("%v: Collect: %v", f, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%v: got %d records, want %d", f, len(got), len(recs))
		}
		for i := range got {
			if got[i].MSSPath != recs[i].MSSPath || got[i].LocalPath != recs[i].LocalPath {
				t.Fatalf("%v: record %d paths diverged", f, i)
			}
			// The canonical string registered in the interner must be the
			// exact string the record carries.
			if canon := in.Path(in.Intern(got[i].MSSPath)); canon != got[i].MSSPath {
				t.Fatalf("%v: record %d path not canonical", f, i)
			}
		}
		// Only the 2 distinct MSS paths are interned; local paths go
		// through the reader's bounded cache, not the shared interner.
		if in.Len() != 2 {
			t.Fatalf("%v: interner holds %d paths, want 2", f, in.Len())
		}
	}
}
