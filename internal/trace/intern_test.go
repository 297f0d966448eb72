package trace

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sync"
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
// or looked up either way, alone or in a batch — performs no
// allocation, whatever the path's length.
func TestInternBytesZeroAlloc(t *testing.T) {
	in := NewInterner()
	s := "/climate/ccm2/run7/history/1992/day3.nc"
	p := []byte(s)
	in.InternBytes(p)
	h := in.Hashes()[0]
	batch, ids := [][]byte{p}, make([]FileID, 1)
	for _, c := range []struct {
		name string
		hit  func() FileID
	}{
		{"InternBytes", func() FileID { return in.InternBytes(p) }},
		{"InternHashed", func() FileID { return in.InternHashed(s, h) }},
		{"Lookup", func() FileID { id, _ := in.Lookup(s); return id }},
		{"LookupBytes", func() FileID { id, _ := in.LookupBytes(p); return id }},
		{"LookupBatch", func() FileID { in.LookupBatch(batch, ids, nil); return ids[0] }},
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

// homedAt returns n distinct paths under prefix whose home slot in an
// index of the given size is home: keys that pile into one probe chain.
func homedAt(prefix string, n, slots, home int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		p := []byte(prefix + itoa(i))
		if int(maphash.Bytes(pathSeed, p))&(slots-1) == home {
			out = append(out, p)
		}
	}
	return out
}

// resolveAgainstProbe resolves keys in in the batch way — LookupBatch,
// then between, then InternMiss for each miss — and in ref, which must
// hold what in holds, key by key through LookupBytes, between and
// InternHashed. The lookups, the misses and the interned IDs must agree
// step for step, and the two tables must end equal, each path found
// again under its own ID. It returns the batch's IDs.
func resolveAgainstProbe(t testing.TB, in, ref *Interner, keys [][]byte, between func(*Interner)) []FileID {
	t.Helper()
	ids := make([]FileID, len(keys))
	misses := in.LookupBatch(keys, ids, nil)
	var wantMissed []int
	for k, key := range keys {
		want, ok := ref.LookupBytes(key)
		if !ok {
			wantMissed = append(wantMissed, k)
		}
		if ids[k] != want {
			t.Fatalf("key %d %q: LookupBatch gave %d, LookupBytes %d", k, key, ids[k], want)
		}
	}
	if len(misses) != len(wantMissed) {
		t.Fatalf("%d misses, want %d", len(misses), len(wantMissed))
	}
	for j, m := range misses {
		if m.Key != wantMissed[j] {
			t.Fatalf("miss %d is key %d, want key %d", j, m.Key, wantMissed[j])
		}
	}
	between(in)
	between(ref)
	for _, m := range misses {
		key := keys[m.Key]
		got, want := in.InternMiss(key, m), ref.InternHashed(string(key), maphash.Bytes(pathSeed, key))
		if got != want {
			t.Fatalf("key %d %q: InternMiss gave %d, InternHashed %d", m.Key, key, got, want)
		}
		ids[m.Key] = got
	}
	if !slices.Equal(in.Paths(), ref.Paths()) || !slices.Equal(in.Hashes(), ref.Hashes()) {
		t.Fatalf("tables differ:\n batch %q\n probe %q", in.Paths(), ref.Paths())
	}
	for id, p := range in.Paths() {
		if got, ok := in.Lookup(p); !ok || got != FileID(id) {
			t.Fatalf("after the batch, %q looks up to %d, %v; want %d", p, got, ok, id)
		}
	}
	return ids
}

// TestInternBatchMatchesProbe holds the batch resolver to the key-at-a-
// time probe where its resume rule could go wrong: on a 16-slot table
// whose probe chains wrap past the last slot, when the index grows
// between a batch's lookup and its intern, when one new path is missed
// twice in one batch, and when another goroutine interns the batch's
// paths — into the very slots its misses stopped at — between the two.
func TestInternBatchMatchesProbe(t *testing.T) {
	nop := func(*Interner) {}
	tables := func(paths ...[]byte) (*Interner, *Interner) {
		in, ref := NewFileTable(), NewFileTable()
		for _, p := range paths {
			in.InternBytes(p)
			ref.InternBytes(p)
		}
		return in, ref
	}

	t.Run("wrap-around chain", func(t *testing.T) {
		chain := homedAt("/wrap/a", 6, minSlots, minSlots-1) // slots 15, 0, 1, 2, 3, 4
		in, ref := tables(chain[:4]...)
		if len(in.slots) != minSlots {
			t.Fatalf("index has %d slots, want %d", len(in.slots), minSlots)
		}
		next := homedAt("/wrap/b", 1, minSlots, 1)
		keys := [][]byte{chain[3], chain[4], chain[0], next[0], chain[5], chain[2]}
		ids := resolveAgainstProbe(t, in, ref, keys, nop)
		if in.Len() != 7 || len(in.slots) != minSlots {
			t.Fatalf("table holds %d paths in %d slots, want 7 in %d", in.Len(), len(in.slots), minSlots)
		}
		if ids[0] != 3 || ids[2] != 0 || ids[5] != 2 {
			t.Fatalf("known paths resolved to %v", ids)
		}
	})

	t.Run("grow between lookup and intern", func(t *testing.T) {
		chain := homedAt("/grow/a", 7, minSlots, 3)
		in, ref := tables(chain[:5]...)
		keys := append(homedAt("/grow/b", 3, minSlots, 3), chain[5], chain[1], chain[6])
		resolveAgainstProbe(t, in, ref, keys, func(x *Interner) { x.Grow(40) })
		if len(in.slots) <= minSlots {
			t.Fatalf("index did not grow: %d slots", len(in.slots))
		}
	})

	t.Run("grow while interning the misses", func(t *testing.T) {
		in, ref := tables(homedAt("/fill/a", 6, minSlots, 9)...)
		keys := homedAt("/fill/b", 5, minSlots, 9) // the third miss re-slots the index
		resolveAgainstProbe(t, in, ref, keys, nop)
		if len(in.slots) <= minSlots {
			t.Fatalf("index did not grow: %d slots", len(in.slots))
		}
	})

	t.Run("one new path twice in a batch", func(t *testing.T) {
		chain := homedAt("/twice/a", 4, minSlots, 7)
		in, ref := tables(chain[0])
		keys := [][]byte{chain[1], chain[0], chain[1], chain[2], chain[3], chain[2], chain[1]}
		ids := resolveAgainstProbe(t, in, ref, keys, nop)
		if ids[0] != ids[2] || ids[0] != ids[6] || ids[3] != ids[5] || in.Len() != 4 {
			t.Fatalf("repeated new paths resolved to %v over %d paths", ids, in.Len())
		}
	})

	t.Run("another goroutine interns between", func(t *testing.T) {
		chain := homedAt("/race/a", 7, minSlots, 12)
		st := NewSharedTable()
		in, ref := tables(chain[:2]...)
		st.Interner = in
		// Every miss stops at slot 14, where the chain ends. The other
		// goroutine then interns chain[3], a key of the batch, into that
		// very slot, and chain[4], which is not in the batch, into the
		// next one.
		keys := [][]byte{chain[2], chain[0], chain[3], chain[5]}
		ids := resolveAgainstProbe(t, in, ref, keys, func(x *Interner) {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				st.Lock()
				x.InternBytes(chain[3])
				x.InternBytes(chain[4])
				st.Unlock()
			}()
			wg.Wait()
		})
		if ids[1] != 0 || ids[2] != 2 || in.Len() != 6 {
			t.Fatalf("batch resolved to %v over %d paths; want chain[0] at 0 and chain[3] at the goroutine's 2", ids, in.Len())
		}
	})
}

// FuzzInternBatch holds the batch resolver to LookupBytes and
// InternHashed over fuzzer-written path sets: the input's
// newline-separated keys (repeats and empty keys included) are split
// into a prefix interned key by key into both tables and two batches;
// the low bit of the first byte grows both tables between the first
// batch's lookup and its intern. Tables start at 16 slots, so chains
// collide, wrap and re-slot.
func FuzzInternBatch(f *testing.F) {
	f.Add([]byte("\x03/a\n/b\n/c\n/a\n/d\n/d\n/e\n/b\n/f"))
	f.Add([]byte("\x01/x/1\n/x/2\n/x/3\n/x/4\n/x/5\n/x/6\n/x/7\n/x/8\n/x/9\n/x/1\n/x/9"))
	f.Add([]byte("\x00\n\n/only\n/only"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, keys := data[0], bytes.Split(data[1:], []byte("\n"))
		pre := min(int(mode>>1)%8, len(keys))
		in, ref := NewFileTable(), NewFileTable()
		for _, k := range keys[:pre] {
			in.InternBytes(k)
			ref.InternBytes(k)
		}
		rest := keys[pre:]
		half := len(rest) / 2
		between := func(*Interner) {}
		if mode&1 != 0 {
			between = func(x *Interner) { x.Grow(len(rest)) }
		}
		resolveAgainstProbe(t, in, ref, rest[:half], between)
		resolveAgainstProbe(t, in, ref, rest[half:], func(*Interner) {})
	})
}
