package trace

import (
	"hash/maphash"
	"strings"
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
// from a worker's table into the master's). The zero value is not
// ready; use NewInterner. An Interner is not safe for concurrent use.
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
// the kind whose IDs are only ever translated into a master's, which
// derives them once — a b2 block decoder's, the migd daemon's and its
// checkpoint restore's. Dir and DirPath have nothing to answer there
// and must not be called; NumDirs is zero.
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
	if id, _ := probe(in, path, h); id != NoFileID {
		return id
	}
	return in.InternHashed(string(path), h) //lint:hotalloc-ok first sighting only: the one canonical copy per distinct path
}

// InternHashed is Intern for a path whose hash is already known: h must
// be the hash an Interner in this process holds for path (its Hashes()
// entry), which is how a fold carries paths from a worker's table into
// the master's without hashing a string.
//
//filemig:hotpath
func (in *Interner) InternHashed(path string, h uint64) FileID {
	id, slot := probe(in, path, h)
	if id != NoFileID {
		return id
	}
	id = FileID(len(in.paths))
	if 2*(len(in.paths)+1) > len(in.slots) {
		in.grow()
		slot = in.emptySlot(h)
	}
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
	id, _ := probe(in, path, maphash.String(pathSeed, path))
	return id, id != NoFileID
}

// LookupBytes is Lookup for a byte-slice key (migd resolves a batch's
// paths while decoding it, and interns the new ones only once the whole
// batch has validated). It never allocates.
//
//filemig:hotpath
func (in *Interner) LookupBytes(path []byte) (FileID, bool) {
	id, _ := probe(in, path, maphash.Bytes(pathSeed, path))
	return id, id != NoFileID
}

// probe walks the index from key's home slot: the FileID of key and its
// slot, or NoFileID and the empty slot where key would go. A string key
// and a byte key share the loop; string(key) in the comparison copies
// nothing.
func probe[K string | []byte](in *Interner, key K, h uint64) (FileID, int) {
	mask := len(in.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			return NoFileID, i
		}
		if id := FileID(s - 1); in.hashes[id] == h && in.paths[id] == string(key) {
			return id, i
		}
	}
}

// grow doubles the index and re-slots every FileID, in order, from its
// stored hash. The per-FileID columns grow in the same step, to exactly
// the most the doubled index holds, so they never grow through append's
// smaller steps between doublings. Growing moves a column to a new
// array, which leaves the prefix views Paths and Hashes handed out
// intact.
func (in *Interner) grow() {
	in.slots = make([]uint32, 2*len(in.slots))
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
	dir := "/"
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		dir = path[:i]
	}
	if id, ok := in.dirIDs[dir]; ok {
		return id
	}
	id := DirID(len(in.dirPaths))
	in.dirIDs[dir] = id
	in.dirPaths = append(in.dirPaths, dir)
	return id
}

// Canonical returns the interned canonical string for the given path
// bytes: one string allocation per distinct path for the life of the
// Interner, however many records repeat it.
func (in *Interner) Canonical(path []byte) string {
	return in.paths[in.InternBytes(path)]
}

// Path returns the canonical path string for id.
func (in *Interner) Path(id FileID) string { return in.paths[id] }

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

// DirPath returns the directory path string for a DirID.
func (in *Interner) DirPath(id DirID) string { return in.dirPaths[id] }

// Len reports the number of distinct paths interned.
func (in *Interner) Len() int { return len(in.paths) }

// NumDirs reports the number of distinct directories derived so far.
func (in *Interner) NumDirs() int { return len(in.dirPaths) }

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
