package vfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"testing"

	"demaq/internal/faultinject"
	"demaq/internal/vfs"
)

// TestErrorTaxonomy: which injected failures the store retries and which
// put the node into degraded read-only mode, bare and wrapped.
func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name                 string
		err                  error
		transient, permanent bool
	}{
		{"nil", nil, false, false},
		{"unrelated", errors.New("boom"), false, false},
		{"transient", vfs.ErrTransientIO, true, false},
		{"transient-wrapped", fmt.Errorf("wal append: %w", vfs.ErrTransientIO), true, false},
		{"disk-full", vfs.ErrDiskFull, false, true},
		{"disk-full-wrapped", fmt.Errorf("page write: %w", vfs.ErrDiskFull), false, true},
		{"disk-failure", vfs.ErrDiskFailure, false, true},
		{"disk-failure-wrapped", fmt.Errorf("sync: %w", vfs.ErrDiskFailure), false, true},
		{"crashed", vfs.ErrCrashed, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := vfs.IsTransient(c.err); got != c.transient {
				t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.transient)
			}
			if got := vfs.IsPermanent(c.err); got != c.permanent {
				t.Errorf("IsPermanent(%v) = %v, want %v", c.err, got, c.permanent)
			}
		})
	}
}

// contractFS is one VFS under the contract test and the directory its files
// live in.
type contractFS struct {
	name string
	open func(t *testing.T) (vfs.VFS, string)
}

var contractFSes = []contractFS{
	{"os", func(t *testing.T) (vfs.VFS, string) { return vfs.OSFileSystem(), t.TempDir() }},
	{"faultfs", func(t *testing.T) (vfs.VFS, string) { return faultinject.NewFaultFS(1), "/data" }},
}

// TestVFSContract runs the behaviour the store relies on against the OS
// file system and against FaultFS with no fault armed, so a crash test's
// FaultFS behaves like the disk the node runs on until a fault fires.
func TestVFSContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, fs vfs.VFS, dir string)
	}{
		{"open-creates-empty", func(t *testing.T, fs vfs.VFS, dir string) {
			f := mustOpen(t, fs, filepath.Join(dir, "a"))
			if n := mustSize(t, f); n != 0 {
				t.Fatalf("new file size %d, want 0", n)
			}
		}},
		{"write-read-roundtrip", func(t *testing.T, fs vfs.VFS, dir string) {
			f := mustOpen(t, fs, filepath.Join(dir, "a"))
			mustWrite(t, f, []byte("hello world"), 0)
			mustWrite(t, f, []byte("WORLD"), 6)
			if got := readAll(t, f); string(got) != "hello WORLD" {
				t.Fatalf("content %q", got)
			}
		}},
		{"write-past-end-zero-fills", func(t *testing.T, fs vfs.VFS, dir string) {
			f := mustOpen(t, fs, filepath.Join(dir, "a"))
			mustWrite(t, f, []byte("ab"), 0)
			mustWrite(t, f, []byte("z"), 5)
			if got := readAll(t, f); !bytes.Equal(got, []byte("ab\x00\x00\x00z")) {
				t.Fatalf("content %q", got)
			}
		}},
		{"read-at-end-is-eof", func(t *testing.T, fs vfs.VFS, dir string) {
			f := mustOpen(t, fs, filepath.Join(dir, "a"))
			mustWrite(t, f, []byte("abcd"), 0)
			buf := make([]byte, 4)
			if n, err := f.ReadAt(buf, 4); n != 0 || err != io.EOF {
				t.Fatalf("ReadAt at end = %d, %v; want 0, EOF", n, err)
			}
			if n, err := f.ReadAt(buf, 2); n != 2 || err != io.EOF || string(buf[:n]) != "cd" {
				t.Fatalf("short ReadAt = %d %q, %v; want 2 \"cd\", EOF", n, buf[:n], err)
			}
		}},
		{"truncate-shrinks-and-extends", func(t *testing.T, fs vfs.VFS, dir string) {
			f := mustOpen(t, fs, filepath.Join(dir, "a"))
			mustWrite(t, f, []byte("abcdef"), 0)
			if err := f.Truncate(3); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, f); string(got) != "abc" {
				t.Fatalf("after shrink %q", got)
			}
			if err := f.Truncate(5); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, f); !bytes.Equal(got, []byte("abc\x00\x00")) {
				t.Fatalf("after extend %q", got)
			}
		}},
		{"content-survives-reopen", func(t *testing.T, fs vfs.VFS, dir string) {
			path := filepath.Join(dir, "a")
			f := mustOpen(t, fs, path)
			mustWrite(t, f, []byte("kept"), 0)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, mustOpen(t, fs, path)); string(got) != "kept" {
				t.Fatalf("reopened content %q", got)
			}
		}},
		{"readdir-lists-names", func(t *testing.T, fs vfs.VFS, dir string) {
			for _, n := range []string{"wal.000002", "data", "wal.000001"} {
				mustOpen(t, fs, filepath.Join(dir, n))
			}
			names, err := fs.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(names)
			if want := []string{"data", "wal.000001", "wal.000002"}; !slices.Equal(names, want) {
				t.Fatalf("ReadDir = %v, want %v", names, want)
			}
		}},
		{"remove-unlists", func(t *testing.T, fs vfs.VFS, dir string) {
			mustOpen(t, fs, filepath.Join(dir, "a"))
			mustOpen(t, fs, filepath.Join(dir, "b"))
			if err := fs.Remove(filepath.Join(dir, "a")); err != nil {
				t.Fatal(err)
			}
			names, err := fs.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(names, []string{"b"}) {
				t.Fatalf("ReadDir after remove = %v, want [b]", names)
			}
			if err := fs.Remove(filepath.Join(dir, "a")); err == nil {
				t.Fatal("removing a removed file succeeded")
			}
		}},
		{"reopen-after-remove-is-empty", func(t *testing.T, fs vfs.VFS, dir string) {
			path := filepath.Join(dir, "a")
			f := mustOpen(t, fs, path)
			mustWrite(t, f, []byte("old"), 0)
			if err := fs.Remove(path); err != nil {
				t.Fatal(err)
			}
			if n := mustSize(t, mustOpen(t, fs, path)); n != 0 {
				t.Fatalf("recreated file size %d, want 0", n)
			}
			// Like a POSIX unlink, the old handle still reads its data.
			if got := readAll(t, f); string(got) != "old" {
				t.Fatalf("orphaned handle reads %q", got)
			}
		}},
	}
	for _, fsys := range contractFSes {
		for _, c := range cases {
			t.Run(fsys.name+"/"+c.name, func(t *testing.T) {
				fs, dir := fsys.open(t)
				c.run(t, fs, dir)
			})
		}
	}
}

func mustOpen(t *testing.T, fs vfs.VFS, path string) vfs.File {
	t.Helper()
	f, err := fs.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func mustWrite(t *testing.T, f vfs.File, p []byte, off int64) {
	t.Helper()
	if n, err := f.WriteAt(p, off); err != nil || n != len(p) {
		t.Fatalf("WriteAt(%q, %d) = %d, %v", p, off, n, err)
	}
}

func mustSize(t *testing.T, f vfs.File) int64 {
	t.Helper()
	n, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func readAll(t *testing.T, f vfs.File) []byte {
	t.Helper()
	buf := make([]byte, mustSize(t, f))
	if n, err := f.ReadAt(buf, 0); n != len(buf) || (err != nil && err != io.EOF) {
		t.Fatalf("ReadAt whole file = %d of %d, %v", n, len(buf), err)
	}
	return buf
}
