// Package vfs is the file-system seam of the storage engine: every byte
// the store reads or writes — data file, WAL — goes through the File
// interface instead of a bare *os.File. Production uses the thin OS
// wrapper below; tests substitute a fault-injecting file system to replay
// crashes, torn writes, lost un-fsynced data, transient and permanent I/O
// errors, and disk-full, on a deterministic schedule.
package vfs

import (
	"errors"
	"io"
	"os"
)

// File is the narrow file handle the storage engine performs I/O through.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
	Close() error
}

// VFS opens files by path. Remove and ReadDir exist for WAL segment
// recycling: the log manager creates numbered segment files, lists them at
// open, and deletes segments wholly behind the checkpoint redo point.
type VFS interface {
	OpenFile(path string) (File, error)
	// Remove deletes a file. Removal is metadata: like any other mutation
	// it may or may not survive a crash (a fault FS resolves that at its
	// simulated crash point), so callers must tolerate removed files
	// reappearing after recovery.
	Remove(path string) error
	// ReadDir lists the file names (not full paths) in a directory.
	ReadDir(dir string) ([]string, error)
}

// Error taxonomy for injected (and, where detectable, real) I/O failures.
// Transient errors are retried with bounded jittered backoff by the store;
// permanent errors propagate up so the engine can enter degraded read-only
// mode instead of panicking or silently losing writes.
var (
	// ErrTransientIO marks a failure that may succeed on retry.
	ErrTransientIO = errors.New("store: transient I/O error")
	// ErrDiskFull marks an exhausted write budget; writes fail until space
	// is reclaimed, reads still work.
	ErrDiskFull = errors.New("store: disk full")
	// ErrDiskFailure marks a permanent device failure; every subsequent
	// write fails.
	ErrDiskFailure = errors.New("store: permanent disk failure")
	// ErrCrashed is returned by a fault FS after its simulated crash point;
	// the process-under-test treats it as the end of the world.
	ErrCrashed = errors.New("store: simulated crash")
)

// IsTransient reports whether an error is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientIO) }

// IsPermanent reports whether an error signals that the storage device can
// no longer accept writes — the trigger for degraded read-only mode.
func IsPermanent(err error) bool {
	return errors.Is(err, ErrDiskFailure) || errors.Is(err, ErrDiskFull)
}

// OSFileSystem returns the production VFS backed by the operating system.
func OSFileSystem() VFS { return osVFS{} }

type osVFS struct{}

func (osVFS) OpenFile(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osVFS) Remove(path string) error { return os.Remove(path) }

func (osVFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
