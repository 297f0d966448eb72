package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// Disk is a fault-injecting file system for the durable write path:
// assigned to dist.Disk, it sees every step a durable write or a prune
// takes — each write into a temporary, the temporary's fsync, the
// rename, the directory's fsync, a removal. It records each in Steps,
// as "<step> <base name>" — a temporary's writes and fsync under the
// name of the file it is to become — and at the At'th (counting from 1)
// injects Fault; with At zero it only records. When Step is set, At
// counts only the steps recorded as Step: with many writers at once the
// order of the steps of different files varies from run to run, but
// each file's own steps come in one order, so a fault named by its step
// and its count there hits the same step every run. It satisfies
// dist.FS structurally, so this package imports nothing of the module.
// Fsyncs are recorded, not performed: nothing here models a power loss.
// It is safe for concurrent use; a Stop's crash image is taken while no
// other step runs.
type Disk struct {
	At    int
	Step  string
	Fault DiskFault
	// Dir and Image are where a Stop fault takes its crash image: the
	// files of Dir are copied into the empty directory Image right after
	// the step, as a process killed at that moment would leave them.
	Dir, Image string
	Steps      []string

	mu   sync.Mutex
	seen int // the steps At counts
}

// DiskFault is what Disk injects at its step.
type DiskFault int

const (
	// ShortWrite lets half of a write's bytes through and fails it with
	// ENOSPC; at a step that is not a write it is NoSpace.
	ShortWrite DiskFault = iota
	// NoSpace fails the step with ENOSPC without taking it.
	NoSpace
	// Stop takes the step, takes the crash image, and fails with
	// ErrInjected so that the writer goes no further.
	Stop
)

// do takes one step under the fault plan: op does it, writing only
// half its bytes when short is set.
func (d *Disk) do(step, path string, op func(short bool) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := step + " " + filepath.Base(path)
	d.Steps = append(d.Steps, rec)
	if d.Step == "" || rec == d.Step {
		d.seen++
	}
	switch {
	case d.seen != d.At || d.Step != "" && rec != d.Step:
		return op(false)
	case d.Fault == Stop:
		if err := op(false); err != nil {
			return err
		}
		if err := os.CopyFS(d.Image, os.DirFS(d.Dir)); err != nil {
			return err
		}
		return fmt.Errorf("%w: stopped after %s %s", ErrInjected, step, path)
	case d.Fault == ShortWrite && step == "write":
		op(true)
	}
	return fmt.Errorf("chaos: %s %s: %w", step, path, syscall.ENOSPC)
}

// CreateTemp makes a temporary for path, in its directory, whose writes
// and fsync are steps.
func (d *Disk) CreateTemp(path string) (interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}, error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return nil, err
	}
	return &diskFile{f, d, path}, nil
}

// Rename is the rename step.
func (d *Disk) Rename(from, to string) error {
	return d.do("rename", to, func(bool) error { return os.Rename(from, to) })
}

// SyncDir is the directory fsync step.
func (d *Disk) SyncDir(dir string) error {
	return d.do("fsync-dir", dir, func(bool) error { return nil })
}

// Remove is the removal step.
func (d *Disk) Remove(path string) error {
	return d.do("remove", path, func(bool) error { return os.Remove(path) })
}

// diskFile is a temporary of a Disk, to become the file at path.
type diskFile struct {
	*os.File
	d    *Disk
	path string
}

func (f *diskFile) Write(b []byte) (n int, err error) {
	err = f.d.do("write", f.path, func(short bool) error {
		if short {
			b = b[:len(b)/2]
		}
		n, err = f.File.Write(b)
		return err
	})
	return n, err
}

func (f *diskFile) Sync() error {
	return f.d.do("fsync", f.path, func(bool) error { return nil })
}
