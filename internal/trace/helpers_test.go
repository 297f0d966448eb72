package trace

import "time"

// Accessors the tests inspect files and tables through.

// Epoch returns the header epoch.
func (f *B2File) Epoch() time.Time { return f.epoch }

// DecodeCount reports how many block decodes have happened over the
// file's lifetime — the observable the shard-skipping tests assert on.
func (f *B2File) DecodeCount() int64 { return f.decodes.Load() }

// DirPath returns the directory path string for a DirID.
func (in *Interner) DirPath(id DirID) string { return in.dirPaths[id] }
