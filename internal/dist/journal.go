package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"filemig/internal/pool"
)

// The coordinator's resumable journal: a directory holding one
// plan-identity file plus one framed spool file per completed task.
// Every result is spooled through WriteFrameFile before the task is
// marked done, so at any kill point the directory is a consistent
// prefix of the truth: a restarted coordinator re-loads exactly the
// completed set and finishes the remainder without re-running done
// tasks. A torn or tampered spool file fails its frame check and is
// treated as not-done — re-executed, never merged corrupt.
//
// WriteFileAtomic (or, for many files at once, Stage and Commit) and
// ReadFrameFile are the module's one durable write path and its
// verified read: migd's checkpoint directory (internal/serve) is
// written and read through them too.

// journalPlanFile records the run identity a journal belongs to.
const journalPlanFile = "plan.json"

// journalVersion versions the journal layout (plan.json plus framed
// spool files) apart from the wire protocol.
const journalVersion = "1"

// journalMeta is the contents of plan.json.
type journalMeta struct {
	Version  string `json:"version"`
	Kind     string `json:"kind"`
	PlanHash string `json:"planHash"`
	NumTasks int    `json:"numTasks"`
}

// journal persists completed results under dir.
type journal struct {
	dir string
}

// openJournal creates (or re-opens) a journal directory for the given
// run identity. Re-opening verifies the identity: resuming a journal
// written by a different plan is an error, not a silent mis-merge.
func openJournal(dir, kind, planHash string, numTasks int) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	meta := journalMeta{Version: journalVersion, Kind: kind, PlanHash: planHash, NumTasks: numTasks}
	path := filepath.Join(dir, journalPlanFile)
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		b, err := json.Marshal(meta)
		if err != nil {
			return nil, err
		}
		if err := WriteFileAtomic(path, writeBytes(b)); err != nil {
			return nil, fmt.Errorf("dist: journal: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("dist: journal: %w", err)
	default:
		var got journalMeta
		if err := json.Unmarshal(raw, &got); err != nil {
			return nil, fmt.Errorf("dist: journal: corrupt %s: %w", journalPlanFile, err)
		}
		if got != meta {
			return nil, fmt.Errorf("dist: journal %s was written by a different run (have %+v, want %+v); "+
				"point -journal at a fresh directory or re-run the original plan", dir, got, meta)
		}
	}
	return &journal{dir: dir}, nil
}

// spoolName returns task id's spool file name; fixed width keeps
// directory listings in task order.
func spoolName(id int) string { return fmt.Sprintf("r%08d.frame", id) }

// put spools one completed result durably.
func (j *journal) put(id int, payload []byte) error {
	if err := WriteFrameFile(filepath.Join(j.dir, spoolName(id)), payload); err != nil {
		return fmt.Errorf("dist: journal: %w", err)
	}
	return nil
}

// get loads one spooled result, reporting ok=false when the task has
// no valid spool entry (missing or failing its frame check).
func (j *journal) get(id int) (payload []byte, ok bool) {
	payload, err := ReadFrameFile(filepath.Join(j.dir, spoolName(id)))
	return payload, err == nil
}

// WriteFrameFile writes payload, wrapped in one wire frame, to path
// through WriteFileAtomic.
func WriteFrameFile(path string, payload []byte) error {
	return WriteFileAtomic(path, writeBytes(EncodeFrame(payload)))
}

// ReadFrameFile reads the file at path and returns the payload of the
// one wire frame it must hold, verified as DecodeFrame verifies it.
// Every error names the file; a missing file's wraps fs.ErrNotExist.
func ReadFrameFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := DecodeFrame(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}

// WriteFileAtomic writes a file durably through a uniquely named
// temporary sibling: write fills the temporary, which is fsynced,
// closed and renamed over path, and then the directory is fsynced. A
// kill at any step leaves either the previous file or the complete new
// one under path, never a mix, and once WriteFileAtomic returns nil
// the new one survives a power loss as far as the file system keeps
// its fsync promises. Two writers never share a temporary; the
// temporary is removed on a failure before the rename. Every step goes
// through Disk. It is Stage and Commit of one file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := Stage(path, write)
	if err != nil {
		return err
	}
	return Commit(filepath.Dir(path), []*Staged{f})
}

// Staged is a durable write taken as far as its temporary, filled but
// not yet fsynced: the first half of WriteFileAtomic, for a writer that
// fills many files under a lock and makes them durable after releasing
// it (migd's checkpoint).
type Staged struct {
	tmp  TempFile
	path string
}

// Stage creates a temporary for path, in path's directory, and fills it
// through write. A failure removes the temporary.
func Stage(path string, write func(io.Writer) error) (*Staged, error) {
	tmp, err := Disk.CreateTemp(path)
	if err != nil {
		return nil, err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name()) // best effort; err is the failure to report
		return nil, err
	}
	return &Staged{tmp, path}, nil
}

// commitSyncs is how many of a Commit's temporaries are fsynced at
// once: a file system overlaps the flushes of a few files, and a
// checkpoint of many stripes spends most of its commit waiting on them.
const commitSyncs = 4

// Commit makes staged files durable under their paths, every one in
// directory dir: it fsyncs the temporaries, up to commitSyncs at once,
// closes them, renames each over its path in the given order, and then
// fsyncs dir, once for them all. A kill at any step leaves each path
// with its previous file or its complete new one; once Commit returns
// nil every new file survives a power loss as WriteFileAtomic's does.
// Whatever fails, every temporary not yet renamed is removed. Commit
// of no files takes no step.
func Commit(dir string, files []*Staged) error {
	if len(files) == 0 {
		return nil
	}
	err := syncAll(files)
	for _, f := range files {
		if cerr := f.tmp.Close(); err == nil {
			err = cerr
		}
	}
	for i, f := range files {
		if err == nil {
			err = Disk.Rename(f.tmp.Name(), f.path)
		}
		if err != nil {
			Discard(files[i:])
			return err
		}
	}
	return Disk.SyncDir(dir)
}

// syncAll fsyncs the temporaries of files, up to commitSyncs at once,
// and returns the first failure in file order.
func syncAll(files []*Staged) error {
	return pool.Run(context.Background(), commitSyncs, pool.Indices(len(files)), func() func(int) (struct{}, error) {
		return func(i int) (struct{}, error) { return struct{}{}, files[i].tmp.Sync() }
	}, nil)
}

// Discard removes the temporaries of staged files that will not be
// committed, closing them first; a closed or removed one is skipped
// without complaint.
func Discard(files []*Staged) {
	for _, f := range files {
		f.tmp.Close()
		os.Remove(f.tmp.Name()) // best effort
	}
}

// writeBytes is the WriteFileAtomic callback for contents already in
// memory.
func writeBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// Disk is the file system under the durable write path: the operating
// system's, unless a test has put a fault-injecting one (dist/chaos's
// Disk) in its place.
var Disk FS = osFS{}

// FS is what the durable write path asks of a file system: a fresh
// temporary for a path, in its directory, a rename, a directory fsync
// and a removal. Concurrent commits call it from many goroutines.
type FS interface {
	CreateTemp(path string) (TempFile, error)
	Rename(from, to string) error
	SyncDir(dir string) error
	Remove(path string) error
}

// TempFile is a temporary being written: an *os.File, or a test's
// wrapper around one. It is an alias of an unnamed interface so that a
// fault-injecting FS can implement FS without importing this package.
type TempFile = interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// osFS is the operating system's file system.
type osFS struct{}

// CreateTemp makes an owner-only (mode 0600) temporary in path's
// directory.
func (osFS) CreateTemp(path string) (TempFile, error) {
	return os.CreateTemp(filepath.Dir(path), ".tmp-*")
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

func (osFS) Remove(path string) error { return os.Remove(path) }

// SyncDir fsyncs dir, making the renames and removals in it durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close() // read-only: nothing for Close to report
	}
	return err
}
