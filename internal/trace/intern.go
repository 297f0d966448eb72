package trace

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// Path interning: the shared hot-path layer that maps MSS path strings to
// dense integer identifiers. Every per-record consumer of a trace — the
// core analysis arena, the migration access-string builder, the request
// coalescer, the codec readers — used to carry its own throwaway
// map[string]T keyed by path; an Interner replaces all of them with one
// table that hands out dense FileIDs (and derived DirIDs), so downstream
// state lives in flat slices indexed by ID instead of string-keyed maps.

// FileID densely identifies one distinct MSS path within an Interner:
// the first path interned is 0, the next new path 1, and so on. IDs are
// only meaningful relative to the Interner that issued them.
type FileID uint32

// NoFileID is the FileID no Interner ever issues: the "not interned
// (yet)" mark in ID-indexed side tables and lookup results.
const NoFileID = ^FileID(0)

// DirID densely identifies one distinct directory within an Interner.
// Directories are numbered in the order their first file is interned,
// which — because a never-seen directory implies a never-seen file — is
// also first-appearance order over the record stream.
type DirID uint32

// pathSeed is the one seed every Interner in the process hashes paths
// under, so a hash one table holds is valid in any other (InternHashed).
// The hash decides slot positions only, and nothing ranges over slots,
// so the random seed changes no ID or output; it keeps a table fed
// crafted path sets (migd's) as resistant as the runtime map is.
var pathSeed = maphash.MakeSeed()

// minSlots is a new table's index size. Most tables are short-lived —
// one per ingest body, decoded snapshot or coalescer — and hold few
// paths, so they start no bigger than a small map.
const minSlots = 16

// Interner assigns dense FileIDs to MSS path strings and derives a DirID
// for each file's directory. It is an open-addressing index over path
// hashes kept per FileID: a probe compares the stored hash before the
// string, and growing re-slots from the stored hashes, so a path string
// is hashed once on its way in — and not at all when it arrives with
// the hash another table holds for it (InternHashed, the fold's path
// from a segment's table into a master's). The zero value is not
// ready; use NewInterner. An Interner is not safe for concurrent use;
// a table many goroutines intern into is a SharedTable.
type Interner struct {
	paths  []string // FileID -> canonical path string
	hashes []uint64 // FileID -> the path's hash under pathSeed
	dirs   []DirID  // FileID -> directory ID

	// slots is the index: a power-of-two length, linear probing, FileID+1
	// in an occupied slot and 0 in an empty one, at most half full.
	slots []uint32

	dirIDs   map[string]DirID // nil in a file-only table (NewFileTable)
	dirPaths []string         // DirID -> directory path
}

// NewInterner returns an empty Interner.
func NewInterner() *Interner {
	return &Interner{slots: make([]uint32, minSlots), dirIDs: make(map[string]DirID)}
}

// NewFileTable returns an empty Interner that derives no directories:
// every table the analysis keeps — a b2 run's shared table, the migd
// daemon's and its checkpoint restore's, a segment's private one, a
// master's own — since the master files each file's directory itself
// as the file first appears. Dir has nothing to answer there and must
// not be called.
func NewFileTable() *Interner {
	return &Interner{slots: make([]uint32, minSlots)}
}

// Intern returns the FileID for path, assigning the next dense ID (and
// deriving the directory) on first sight.
//
//filemig:hotpath
func (in *Interner) Intern(path string) FileID {
	return in.InternHashed(path, maphash.String(pathSeed, path))
}

// InternBytes is Intern for a byte-slice key. On a hit — the overwhelming
// steady-state case — it performs no allocation; only a first sighting
// copies the bytes into a new canonical string.
//
//filemig:hotpath
func (in *Interner) InternBytes(path []byte) FileID {
	h := maphash.Bytes(pathSeed, path)
	return intern(in, path, h, in.home(h))
}

// InternHashed is Intern for a path whose hash is already known: h must
// be the hash an Interner in this process holds for path (its Hashes()
// entry), which is how a fold carries paths from a worker's table into
// the master's without hashing a string.
//
//filemig:hotpath
func (in *Interner) InternHashed(path string, h uint64) FileID {
	return intern(in, path, h, in.home(h))
}

// intern returns key's FileID, assigning the next one on first sight,
// with one probe from slot i of key's probe path (see probe). Only the
// first sighting of a byte key allocates: the one canonical copy per
// distinct path.
func intern[K string | []byte](in *Interner, key K, h uint64, i int) FileID {
	id, slot := probe(in, key, h, i)
	if id != NoFileID {
		return id
	}
	id = FileID(len(in.paths))
	if 2*(len(in.paths)+1) > len(in.slots) {
		in.grow(2 * len(in.slots))
		slot = in.emptySlot(h)
	}
	path := string(key)
	in.slots[slot] = uint32(id) + 1
	in.paths = append(in.paths, path)
	in.hashes = append(in.hashes, h)
	if in.dirIDs != nil {
		in.dirs = append(in.dirs, in.internDir(path))
	}
	return id
}

// Lookup returns the FileID already assigned to path without ever
// assigning one: the read-only probe, for callers that may not extend
// the table (migd's /v1/file answers for known files only).
//
//filemig:hotpath
func (in *Interner) Lookup(path string) (FileID, bool) {
	h := maphash.String(pathSeed, path)
	id, _ := probe(in, path, h, in.home(h))
	return id, id != NoFileID
}

// home is hash h's home slot in the index.
func (in *Interner) home(h uint64) int { return int(h) & (len(in.slots) - 1) }

// probe walks the index from slot i of key's probe path — its home
// slot, or a later one when every slot before i is known to hold
// another key: the FileID of key and its slot, or NoFileID and the
// empty slot where key would go. A string key and a byte key share the
// loop; string(key) in the comparison copies nothing.
func probe[K string | []byte](in *Interner, key K, h uint64, i int) (FileID, int) {
	mask := len(in.slots) - 1
	for ; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			return NoFileID, i
		}
		if id := FileID(s - 1); in.hashes[id] == h && in.paths[id] == string(key) {
			return id, i
		}
	}
}

// resolveWidth is how many keys LookupBatch carries through each stage
// together: enough independent loads in flight for their cache misses
// to overlap, few enough that a stage's state stays in L1.
const resolveWidth = 32

// PathMiss is a key LookupBatch did not find: its position in the
// batch, its hash, and the empty slot its probe stopped at in an index
// of the recorded size. InternMiss resumes the probe there.
type PathMiss struct {
	Key  int // the key's index in the batch
	h    uint64
	slot int
	size int // len(slots) when slot was found
}

// LookupBatch looks up a batch of path keys without ever assigning an
// ID: ids[k] receives the FileID of keys[k], or NoFileID when the table
// lacks it, in which case a PathMiss for it is appended to misses (in
// key order), which is returned. ids must be as long as keys. The
// probes run in stages over resolveWidth keys at a time — hash every
// key, load every home slot, then verify (a key whose home slot is
// empty is a miss with no further load) — so the cache misses of a
// stage's independent slot loads overlap rather than each waiting
// behind the last key's whole probe chain. misses grows at most once per
// call, to room for every key still unresolved. The caller holds the
// read lock of a SharedTable.
//
//filemig:hotpath
func (in *Interner) LookupBatch(keys [][]byte, ids []FileID, misses []PathMiss) []PathMiss {
	var hs [resolveWidth]uint64
	var home [resolveWidth]uint32
	for lo := 0; lo < len(keys); lo += resolveWidth {
		stage := keys[lo:min(lo+resolveWidth, len(keys))]
		for j, k := range stage {
			hs[j] = maphash.Bytes(pathSeed, k)
		}
		for j := range stage {
			home[j] = in.slots[in.home(hs[j])]
		}
		for j, k := range stage {
			h, i, id := hs[j], in.home(hs[j]), NoFileID
			if home[j] != 0 {
				id, i = probe(in, k, h, i)
			}
			ids[lo+j] = id
			if id == NoFileID {
				if len(misses) == cap(misses) {
					misses = slices.Grow(misses, len(keys)-lo-j)
				}
				misses = append(misses, PathMiss{Key: lo + j, h: h, slot: i, size: len(in.slots)})
			}
		}
	}
	return misses
}

// InternMiss returns the FileID for key, a key LookupBatch missed as m,
// assigning the next one if no intern has added key since: one probe,
// resumed at the slot the lookup stopped at. Every slot before it on
// key's probe path held another key at lookup time, and the table never
// deletes, so key can only sit at that slot or past it — unless the
// index has grown (been re-slotted) since, when the probe starts again
// from key's home slot. The same new key missed twice in one batch thus
// resolves to one ID. The caller holds the write lock of a SharedTable.
//
//filemig:hotpath
func (in *Interner) InternMiss(key []byte, m PathMiss) FileID {
	i := m.slot
	if m.size != len(in.slots) {
		i = in.home(m.h)
	}
	return intern(in, key, m.h, i)
}

// Grow makes room for n more paths, as slices.Grow does for a slice: the
// next n new paths intern without the table growing. A table short of
// room re-slots once, into the smallest doubling of its index that
// holds them.
func (in *Interner) Grow(n int) {
	if need := 2 * (len(in.paths) + n); need > len(in.slots) {
		in.grow(1 << bits.Len(uint(need-1)))
	}
}

// grow replaces the index with one of size slots, a larger power of
// two, and re-slots every FileID, in order, from its stored hash. The
// per-FileID columns grow in the same step, to exactly the most the new
// index holds, so they never grow through append's smaller steps
// between doublings. Growing moves a column to a new array, which
// leaves the prefix views Paths and Hashes handed out intact.
func (in *Interner) grow(size int) {
	in.slots = make([]uint32, size)
	for id, h := range in.hashes {
		in.slots[in.emptySlot(h)] = uint32(id) + 1
	}
	n := len(in.slots) / 2
	in.paths = append(make([]string, 0, n), in.paths...)
	in.hashes = append(make([]uint64, 0, n), in.hashes...)
	if in.dirIDs != nil {
		in.dirs = append(make([]DirID, 0, n), in.dirs...)
	}
}

// emptySlot returns the first empty slot on hash h's probe path.
func (in *Interner) emptySlot(h uint64) int {
	mask := len(in.slots) - 1
	i := int(h) & mask
	for in.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// internDir returns the DirID for path's directory, registering it on
// first sight.
func (in *Interner) internDir(path string) DirID {
	dir := DirOf(path)
	if id, ok := in.dirIDs[dir]; ok {
		return id
	}
	id := DirID(len(in.dirPaths))
	in.dirIDs[dir] = id
	in.dirPaths = append(in.dirPaths, dir)
	return id
}

// DirOf returns path's directory: everything before its last slash, or
// "/" for a path directly under the root — the one rule every DirID and
// every derived directory count follows.
func DirOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "/"
}

// Canonical returns the interned canonical string for the given path
// bytes: one string allocation per distinct path for the life of the
// Interner, however many records repeat it.
func (in *Interner) Canonical(path []byte) string {
	return in.paths[in.InternBytes(path)]
}

// Paths returns the FileID-indexed path table as it stands: a read-only
// prefix view that later Interns never change (they append past its end
// or move to a new backing array), so a goroutine handed the view may
// read it while the table's owner goes on interning.
func (in *Interner) Paths() []string { return in.paths[:len(in.paths):len(in.paths)] }

// Hashes returns the FileID-indexed path hashes as they stand — what
// InternHashed takes — as a prefix view under the contract of Paths.
func (in *Interner) Hashes() []uint64 { return in.hashes[:len(in.hashes):len(in.hashes)] }

// Dir returns the directory ID derived for id's path.
func (in *Interner) Dir(id FileID) DirID { return in.dirs[id] }

// Len reports the number of distinct paths interned.
func (in *Interner) Len() int { return len(in.paths) }

// SharedTable is a file-only path table (NewFileTable) that many
// goroutines intern into at once, with the lock that guards it: the b2
// index path's one table per run, which every shard worker's block
// decoder interns its dictionaries into, and the migd daemon's. The
// protocol is a batch's lookups under the read lock (LookupBatch over a
// block's dictionary or a decoded ingest batch), then its misses
// interned under the write lock (InternMiss, each one probe resumed
// where its lookup stopped), so each distinct path is hashed once and
// copied into a string once per table, however many goroutines meet
// it. Every Interner method reads the table and needs the read lock, or
// extends it and needs the write lock; the prefix views Paths and
// Hashes hand out may be read after the lock is released.
type SharedTable struct {
	sync.RWMutex
	*Interner
}

// NewSharedTable returns an empty SharedTable.
func NewSharedTable() *SharedTable { return &SharedTable{Interner: NewFileTable()} }

// pathCache is a fixed-size direct-mapped canonical-string cache for
// path fields that have no interned downstream consumer (the codec
// readers' local paths). A repeated path is handed back without
// allocating, like an Interner — but a conflicting path simply evicts
// its slot, so memory stays bounded however many distinct paths a
// stream carries.
type pathCache struct {
	entries [1 << 10]string
}

// canonical returns a string equal to b, reusing the cached copy when
// the slot holds one.
func (c *pathCache) canonical(b []byte) string {
	// FNV-1a over the bytes; any mixing function works, collisions only
	// cost an eviction.
	h := uint32(2166136261)
	for _, x := range b {
		h = (h ^ uint32(x)) * 16777619
	}
	i := h & uint32(len(c.entries)-1)
	if s := c.entries[i]; s == string(b) { // no-alloc comparison
		return s
	}
	s := string(b)
	c.entries[i] = s
	return s
}
