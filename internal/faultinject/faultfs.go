// Package faultinject holds the deterministic fault injectors the crash
// and robustness tests drive: FaultFS, a vfs.VFS that crashes, tears and
// fails storage operations on a seeded schedule, and FaultNet, a
// gateway.Transport that drops, duplicates, reorders and partitions
// transfers on one. Only tests import it; the node never links it.
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"demaq/internal/vfs"
)

// FaultFS is a deterministic in-memory VFS for crash and I/O fault
// injection. Every mutation (WriteAt, Sync, Truncate) across all files is a
// numbered operation; the numbering, together with a seed, makes every
// failure replayable: the k-th operation of an identical workload is always
// the same byte range of the same file.
//
// Durability model: each file keeps a durable image (what survives a crash)
// and a current image (what the OS page cache would show). Writes land in
// the current image immediately and are queued as pending; Sync promotes the
// current image to durable and clears the queue. A crash resolves each
// pending operation with the seeded RNG — dropped, kept whole, or kept as a
// torn byte-granularity prefix — modeling lost un-fsynced writes and torn
// sectors. After the crash every call fails with vfs.ErrCrashed until
// ClearFault, which re-arms the FS for "reboot": the durable images become
// the visible content, exactly like reopening real files after power loss.
//
// Fault schedules:
//
//	CrashAt(k)          — crash when mutation op k executes
//	TearAt(k)           — crash at op k, which persists as a torn write
//	TearAtPrefix(k, n)  — crash at op k, which persists its first n bytes
//	TransientEvery(k)   — every k-th mutation fails once with vfs.ErrTransientIO
//	FailWritesAfter(k)  — from op k on, all mutations fail with vfs.ErrDiskFailure
//	SetWriteBudget(n)   — after n more written bytes, writes fail vfs.ErrDiskFull
type FaultFS struct {
	mu    sync.Mutex
	rng   *rand.Rand
	files map[string]*faultData

	nOps  int
	trace []FaultPoint

	crashAt   int  // crash when op counter reaches this value; 0 = disarmed
	tear      bool // a write that crashes persists a prefix (TearAt)
	tearKeep  int  // that prefix's length; < 0 = half the write
	crashed   bool
	transient int   // every n-th op fails transiently; 0 = disarmed
	permAt    int   // ops >= permAt fail permanently; 0 = disarmed
	permanent bool  // a permanent failure has triggered
	budget    int64 // remaining write bytes; < 0 = unlimited
}

// FaultPoint records one mutation operation: its global number, the file,
// the kind of operation, and the byte range it covered.
type FaultPoint struct {
	N    int
	Path string
	Op   string // "write", "sync", "truncate", "remove"
	Off  int64
	Len  int
}

func (p FaultPoint) String() string {
	return fmt.Sprintf("#%d %s %s off=%d len=%d", p.N, p.Op, p.Path, p.Off, p.Len)
}

type faultData struct {
	durable []byte
	current []byte
	pending []pendingOp

	// File removal is metadata, tracked like truncation: removed is the
	// current (page-cache) view, durRemoved what a crash would preserve.
	// Like a POSIX unlink, existing handles keep working on the orphaned
	// data; only OpenFile and ReadDir consult the flags.
	removed    bool
	durRemoved bool
}

type pendingOp struct {
	isTrunc  bool
	isRemove bool
	off      int64
	data     []byte
	size     int64
}

// NewFaultFS returns a fault-injecting VFS whose crash resolution is driven
// by the given seed.
func NewFaultFS(seed int64) *FaultFS {
	return &FaultFS{
		rng:    rand.New(rand.NewSource(seed)),
		files:  map[string]*faultData{},
		budget: -1,
	}
}

// OpenFile opens (creating if needed) an in-memory file. File contents
// persist across Open/Close cycles, like a real filesystem.
func (fs *FaultFS) OpenFile(path string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, vfs.ErrCrashed
	}
	d, ok := fs.files[path]
	if !ok || d.removed {
		// Creating a path whose previous file was removed makes a fresh
		// file; orphaned handles keep the old data, like POSIX unlink.
		d = &faultData{}
		fs.files[path] = d
	}
	return &faultHandle{fs: fs, path: path, d: d}, nil
}

// Remove deletes a file. The removal is a numbered mutation op and, like
// truncation, is metadata: a crash before it is made durable may resurrect
// the file with its durable content.
func (fs *FaultFS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[path]
	if !ok || d.removed {
		if fs.crashed {
			return vfs.ErrCrashed
		}
		return fmt.Errorf("faultfs: remove %s: no such file", path)
	}
	fail, crash := fs.checkFaults(path, "remove", 0, 0)
	if crash {
		fs.crashNow(path, &pendingOp{isRemove: true})
		return vfs.ErrCrashed
	}
	if fail != nil {
		return fail
	}
	d.removed = true
	d.pending = append(d.pending, pendingOp{isRemove: true})
	return nil
}

// ReadDir lists the file names (not full paths) under dir in the current
// (page-cache) view.
func (fs *FaultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, vfs.ErrCrashed
	}
	prefix := dir
	if prefix != "" && prefix[len(prefix)-1] != '/' {
		prefix += "/"
	}
	var names []string
	for p, d := range fs.files {
		if d.removed || len(p) <= len(prefix) || p[:len(prefix)] != prefix {
			continue
		}
		names = append(names, p[len(prefix):])
	}
	sort.Strings(names)
	return names, nil
}

// CrashAt arms a crash at mutation operation n (1-based). Passing 0
// disarms.
func (fs *FaultFS) CrashAt(n int) {
	fs.mu.Lock()
	fs.crashAt = n
	fs.mu.Unlock()
}

// TearAt arms a crash at mutation operation n, like CrashAt, and if that
// operation is a write it persists as a torn write whatever the seed: its
// first half reaches the durable image after the pending operations are
// resolved. Passing 0 disarms.
func (fs *FaultFS) TearAt(n int) { fs.TearAtPrefix(n, -1) }

// TearAtPrefix is TearAt with the torn prefix chosen: the first keep bytes
// of the write (all of it if it is shorter; half of it for a negative keep)
// reach the durable image. Sweeping keep over a log write crashes a commit
// at every record boundary inside it.
func (fs *FaultFS) TearAtPrefix(n, keep int) {
	fs.mu.Lock()
	fs.crashAt, fs.tear, fs.tearKeep = n, n > 0, keep
	fs.mu.Unlock()
}

// TransientEvery makes every n-th mutation fail once with vfs.ErrTransientIO
// (the retried attempt gets a new op number and succeeds). 0 disarms.
func (fs *FaultFS) TransientEvery(n int) {
	fs.mu.Lock()
	fs.transient = n
	fs.mu.Unlock()
}

// FailWritesAfter makes every mutation from op n onward fail with
// vfs.ErrDiskFailure — a dead device. Reads keep working. 0 disarms.
func (fs *FaultFS) FailWritesAfter(n int) {
	fs.mu.Lock()
	fs.permAt = n
	fs.mu.Unlock()
}

// SetWriteBudget allows n more bytes of writes before vfs.ErrDiskFull; -1 is
// unlimited.
func (fs *FaultFS) SetWriteBudget(n int64) {
	fs.mu.Lock()
	fs.budget = n
	fs.mu.Unlock()
}

// ClearFault disarms all fault schedules and, after a crash, makes the
// durable images visible again — the "reboot" step before reopening.
func (fs *FaultFS) ClearFault() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashAt = 0
	fs.tear = false
	fs.transient = 0
	fs.permAt = 0
	fs.permanent = false
	fs.budget = -1
	if fs.crashed {
		fs.crashed = false
		for _, d := range fs.files {
			d.current = append([]byte(nil), d.durable...)
			d.pending = nil
			d.removed = d.durRemoved
		}
	}
}

// CrashNow crashes the filesystem immediately, as if power was cut between
// operations: pending (un-fsynced) writes resolve with the seeded RNG and
// every subsequent call fails with vfs.ErrCrashed until ClearFault. It lets an
// external event source — e.g. a simulated network — act as the crash
// trigger while storage-state resolution stays deterministic.
func (fs *FaultFS) CrashNow() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.crashed {
		fs.crashNow("", nil)
	}
}

// Crashed reports whether the simulated crash has fired.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Ops returns the number of mutation operations performed so far.
func (fs *FaultFS) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.nOps
}

// Trace returns a copy of the recorded mutation operations.
func (fs *FaultFS) Trace() []FaultPoint {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]FaultPoint(nil), fs.trace...)
}

// Clone copies a rebooted FaultFS, one with no pending operation: its
// files and its operation count and trace, with no fault armed. seed
// drives the copy's crash resolution. It panics if fs has crashed or holds
// un-synced operations.
func (fs *FaultFS) Clone(seed int64) *FaultFS {
	c := NewFaultFS(seed)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for path, d := range fs.files {
		if len(d.pending) != 0 || fs.crashed {
			panic("faultfs: Clone of a filesystem that is not rebooted")
		}
		c.files[path] = &faultData{durable: bytes.Clone(d.durable), current: bytes.Clone(d.current), removed: d.removed, durRemoved: d.durRemoved}
	}
	c.nOps, c.trace = fs.nOps, slices.Clone(fs.trace)
	return c
}

// DurableSize returns the length of the durable image of path: what a
// crash now would leave on disk. It is 0 for a file never created.
func (fs *FaultFS) DurableSize(path string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if d := fs.files[path]; d != nil {
		return len(d.durable)
	}
	return 0
}

// CutDurable truncates the durable image of path to its first n bytes and
// makes that the visible content, with no pending operation: the file as a
// reboot after a crash that lost everything beyond n would show it. It is
// not a numbered operation and fires no fault.
func (fs *FaultFS) CutDurable(path string, n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := fs.files[path]
	d.durable = d.durable[:n]
	d.current = bytes.Clone(d.durable)
	d.pending = nil
}

// checkFaults numbers one mutation op and applies the armed schedules.
// Called with fs.mu held. Returns a non-nil error when the op must fail;
// crash=true when the caller's own operation is the crash victim (the
// caller then invokes crashNow with its pending op).
func (fs *FaultFS) checkFaults(path, op string, off int64, n int) (fail error, crash bool) {
	if fs.crashed {
		return vfs.ErrCrashed, false
	}
	if fs.permanent {
		return vfs.ErrDiskFailure, false
	}
	fs.nOps++
	fs.trace = append(fs.trace, FaultPoint{N: fs.nOps, Path: path, Op: op, Off: off, Len: n})
	if fs.permAt > 0 && fs.nOps >= fs.permAt {
		fs.permanent = true
		return vfs.ErrDiskFailure, false
	}
	if fs.transient > 0 && fs.nOps%fs.transient == 0 {
		return vfs.ErrTransientIO, false
	}
	if op == "write" && fs.budget >= 0 {
		if int64(n) > fs.budget {
			return vfs.ErrDiskFull, false
		}
		fs.budget -= int64(n)
	}
	if fs.crashAt > 0 && fs.nOps >= fs.crashAt {
		return vfs.ErrCrashed, true
	}
	return nil, false
}

// crashNow resolves every pending (un-fsynced) operation with the seeded
// RNG: dropped, kept whole, or kept as a torn prefix. extra, when non-nil,
// is the in-flight operation that triggered the crash; it may likewise
// persist partially. Files are visited in sorted path order so the RNG
// stream — and therefore the post-crash disk state — is a pure function of
// (seed, op schedule).
func (fs *FaultFS) crashNow(extraPath string, extra *pendingOp) {
	fs.crashed = true
	paths := make([]string, 0, len(fs.files))
	for p := range fs.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		d := fs.files[p]
		ops := d.pending
		if extra != nil && p == extraPath {
			ops = append(append([]pendingOp(nil), ops...), *extra)
		}
		for _, op := range ops {
			fs.resolveOp(d, op)
		}
		d.pending = nil
		d.current = append([]byte(nil), d.durable...)
		d.removed = d.durRemoved
	}
}

func (fs *FaultFS) resolveOp(d *faultData, op pendingOp) {
	if op.isRemove {
		// Like truncation, an unlink either reached the journal or did not;
		// a lost one resurrects the file with its durable content.
		if fs.rng.Intn(2) == 0 {
			d.durRemoved = true
		}
		return
	}
	if op.isTrunc {
		// Metadata operations either reached the journal or did not.
		if fs.rng.Intn(2) == 0 {
			d.durable = applyTrunc(d.durable, op.size)
		}
		return
	}
	switch fs.rng.Intn(3) {
	case 0: // lost
	case 1: // fully persisted
		d.durable = applyWrite(d.durable, op.off, op.data)
	case 2: // torn: a byte-granularity prefix reached the platter
		k := fs.rng.Intn(len(op.data) + 1)
		d.durable = applyWrite(d.durable, op.off, op.data[:k])
	}
}

func applyWrite(buf []byte, off int64, data []byte) []byte {
	if len(data) == 0 {
		return buf
	}
	end := off + int64(len(data))
	for int64(len(buf)) < end {
		buf = append(buf, 0)
	}
	copy(buf[off:end], data)
	return buf
}

func applyTrunc(buf []byte, size int64) []byte {
	for int64(len(buf)) < size {
		buf = append(buf, 0)
	}
	return buf[:size]
}

// faultHandle is one open handle; all state lives on the shared FaultFS so
// reopening a path sees prior content.
type faultHandle struct {
	fs   *FaultFS
	path string
	d    *faultData
}

func (h *faultHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, vfs.ErrCrashed
	}
	if off >= int64(len(h.d.current)) {
		return 0, io.EOF
	}
	n := copy(p, h.d.current[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *faultHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fail, crash := h.fs.checkFaults(h.path, "write", off, len(p))
	if crash {
		if h.fs.tear {
			keep := h.fs.tearKeep
			if keep < 0 {
				keep = len(p) / 2
			}
			h.fs.crashNow(h.path, nil)
			h.d.durable = applyWrite(h.d.durable, off, p[:min(keep, len(p))])
		} else {
			h.fs.crashNow(h.path, &pendingOp{off: off, data: append([]byte(nil), p...)})
		}
		return 0, vfs.ErrCrashed
	}
	if fail != nil {
		return 0, fail
	}
	h.d.current = applyWrite(h.d.current, off, p)
	h.d.pending = append(h.d.pending, pendingOp{off: off, data: append([]byte(nil), p...)})
	return len(p), nil
}

func (h *faultHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fail, crash := h.fs.checkFaults(h.path, "sync", 0, 0)
	if crash {
		// The crash interrupts the fsync: pending writes resolve randomly,
		// they are NOT promoted to durable.
		h.fs.crashNow("", nil)
		return vfs.ErrCrashed
	}
	if fail != nil {
		return fail
	}
	h.d.durable = append([]byte(nil), h.d.current...)
	if h.d.removed {
		h.d.durRemoved = true
	}
	h.d.pending = nil
	return nil
}

func (h *faultHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fail, crash := h.fs.checkFaults(h.path, "truncate", size, 0)
	if crash {
		h.fs.crashNow(h.path, &pendingOp{isTrunc: true, size: size})
		return vfs.ErrCrashed
	}
	if fail != nil {
		return fail
	}
	h.d.current = applyTrunc(h.d.current, size)
	h.d.pending = append(h.d.pending, pendingOp{isTrunc: true, size: size})
	return nil
}

func (h *faultHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, vfs.ErrCrashed
	}
	return int64(len(h.d.current)), nil
}

func (h *faultHandle) Close() error { return nil }
