package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Disk is a fault-injecting file system for the durable write path:
// assigned to dist.Disk, it sees every step a durable write or a prune
// takes — each write into a temporary, the temporary's fsync, the
// rename, the directory's fsync, a removal. It records each in Steps,
// as "<step> <base name>", and at the At'th (counting from 1) injects
// Fault; with At zero it only records. It satisfies dist.FS
// structurally, so this package imports nothing of the module. Fsyncs
// are recorded, not performed: nothing here models a power loss. One
// writer at a time.
type Disk struct {
	At    int
	Fault DiskFault
	// Dir and Image are where a Stop fault takes its crash image: the
	// files of Dir are copied into the empty directory Image right after
	// the step, as a process killed at that moment would leave them.
	Dir, Image string
	Steps      []string
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
	d.Steps = append(d.Steps, step+" "+filepath.Base(path))
	switch {
	case len(d.Steps) != d.At:
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

// CreateTemp makes a temporary in dir whose writes and fsync are steps.
func (d *Disk) CreateTemp(dir string) (interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}, error) {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return nil, err
	}
	return &diskFile{f, d}, nil
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

// diskFile is a temporary of a Disk.
type diskFile struct {
	*os.File
	d *Disk
}

func (f *diskFile) Write(b []byte) (n int, err error) {
	err = f.d.do("write", f.Name(), func(short bool) error {
		if short {
			b = b[:len(b)/2]
		}
		n, err = f.File.Write(b)
		return err
	})
	return n, err
}

func (f *diskFile) Sync() error {
	return f.d.do("fsync", f.Name(), func(bool) error { return nil })
}
