package store

import (
	"math/rand"
	"time"

	"demaq/internal/vfs"
)

// The file-system seam lives in package vfs; these aliases keep the
// store's Options and its callers' device wrappers spelled in store terms.

// File is the narrow file handle the storage engine performs I/O through.
type File = vfs.File

// VFS opens files by path (see vfs.VFS).
type VFS = vfs.VFS

// OSFileSystem returns the production VFS backed by the operating system.
func OSFileSystem() VFS { return vfs.OSFileSystem() }

// retryFile wraps a File with bounded retry of transient errors: each
// failed attempt backs off exponentially with full jitter (half fixed, half
// random) so concurrent retriers spread out instead of thundering. Only
// errors classified transient are retried; everything else — including
// permanent failures and simulated crashes — propagates immediately.
type retryFile struct {
	f File
}

const (
	retryAttempts  = 4
	retryBaseDelay = time.Millisecond
)

func withRetry(op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || !vfs.IsTransient(err) || attempt == retryAttempts-1 {
			return err
		}
		d := retryBaseDelay << attempt
		time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
	}
}

func (r *retryFile) ReadAt(p []byte, off int64) (n int, err error) {
	err = withRetry(func() error {
		var e error
		n, e = r.f.ReadAt(p, off)
		return e
	})
	return n, err
}

func (r *retryFile) WriteAt(p []byte, off int64) (n int, err error) {
	err = withRetry(func() error {
		var e error
		n, e = r.f.WriteAt(p, off)
		return e
	})
	return n, err
}

func (r *retryFile) Sync() error {
	return withRetry(r.f.Sync)
}

func (r *retryFile) Truncate(size int64) error {
	return withRetry(func() error { return r.f.Truncate(size) })
}

func (r *retryFile) Size() (int64, error) { return r.f.Size() }
func (r *retryFile) Close() error         { return r.f.Close() }
