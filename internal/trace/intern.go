package trace

import "strings"

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

// Interner assigns dense FileIDs to MSS path strings and derives a DirID
// for each file's directory. The zero value is not ready; use NewInterner.
// An Interner is not safe for concurrent use.
type Interner struct {
	ids   map[string]FileID
	paths []string // FileID -> canonical path string
	dirs  []DirID  // FileID -> directory ID

	dirIDs   map[string]DirID // nil in a file-only table (newFileTable)
	dirPaths []string         // DirID -> directory path
}

// NewInterner returns an empty Interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]FileID), dirIDs: make(map[string]DirID)}
}

// newFileTable returns an empty Interner that derives no directories:
// the b2 block decoders' kind, whose IDs are only ever translated into
// a master's (which derives them once), so Dir, DirPath and NumDirs have
// nothing to answer there and must not be called.
func newFileTable() *Interner {
	return &Interner{ids: make(map[string]FileID)}
}

// Intern returns the FileID for path, assigning the next dense ID (and
// deriving the directory) on first sight.
//
//filemig:hotpath
func (in *Interner) Intern(path string) FileID {
	if id, ok := in.ids[path]; ok {
		return id
	}
	return in.add(path)
}

// InternBytes is Intern for a byte-slice key. On a hit — the overwhelming
// steady-state case — it performs no allocation; only a first sighting
// copies the bytes into a new canonical string.
//
//filemig:hotpath
func (in *Interner) InternBytes(path []byte) FileID {
	if id, ok := in.ids[string(path)]; ok { // no-alloc map lookup
		return id
	}
	return in.add(string(path)) //lint:hotalloc-ok first sighting only: the one canonical copy per distinct path
}

// Lookup returns the FileID already assigned to path without ever
// assigning one: the read-only probe, for callers that may not extend
// the table (migd's /v1/file answers for known files only).
//
//filemig:hotpath
func (in *Interner) Lookup(path string) (FileID, bool) {
	id, ok := in.ids[path]
	return id, ok
}

// LookupBytes is Lookup for a byte-slice key (migd resolves a batch's
// paths while decoding it, and interns the new ones only once the whole
// batch has validated). It never allocates.
//
//filemig:hotpath
func (in *Interner) LookupBytes(path []byte) (FileID, bool) {
	id, ok := in.ids[string(path)] // no-alloc map lookup
	return id, ok
}

// add registers a new path under the next dense FileID.
func (in *Interner) add(path string) FileID {
	id := FileID(len(in.paths))
	in.ids[path] = id
	in.paths = append(in.paths, path)
	if in.dirIDs != nil {
		in.dirs = append(in.dirs, in.internDir(path))
	}
	return id
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
