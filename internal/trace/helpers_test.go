package trace

import (
	"bytes"
	"hash/maphash"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// Accessors the tests inspect files and tables through.

// countingReaderAt counts ReadAt calls: after the open, each one reads
// one block's frame.
type countingReaderAt struct {
	r     io.ReaderAt
	calls atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.calls.Add(1)
	return c.r.ReadAt(p, off)
}

// openCounted opens an encoded b2 trace seekably and returns with it a
// count of the blocks read since the open.
func openCounted(t testing.TB, enc []byte) (*B2File, func() int64) {
	t.Helper()
	c := &countingReaderAt{r: bytes.NewReader(enc)}
	f, err := OpenB2File(c, int64(len(enc)))
	if err != nil {
		t.Fatalf("OpenB2File: %v", err)
	}
	opened := c.calls.Load()
	return f, func() int64 { return c.calls.Load() - opened }
}

// Epoch returns the header epoch.
func (f *B2File) Epoch() time.Time { return f.epoch }

// DirPath returns the directory path string for a DirID.
func (in *Interner) DirPath(id DirID) string { return in.dirPaths[id] }

// NumDirs reports the number of distinct directories derived so far.
func (in *Interner) NumDirs() int { return len(in.dirPaths) }

// Path returns the canonical path string for id.
func (in *Interner) Path(id FileID) string { return in.paths[id] }

// LookupBytes is Lookup for a byte-slice key, one key at a time: the
// reference LookupBatch is held to. It never allocates.
func (in *Interner) LookupBytes(path []byte) (FileID, bool) {
	h := maphash.Bytes(pathSeed, path)
	id, _ := probe(in, path, h, in.home(h))
	return id, id != NoFileID
}
