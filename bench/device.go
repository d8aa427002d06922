package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"demaq/internal/store"
)

// flushLatency is the modelled device's flush time. Every Sync waits this
// long instead of issuing a physical fsync: the sandbox's real disk drifted
// ±20 % between repeats, which no gate survives, while the commit,
// group-commit and checkpoint code paths above the VFS seam are the
// production ones and fsync amortisation still pays.
const flushLatency = time.Millisecond

const deviceModel = "OS files, Sync = 1ms modelled flush (no physical fsync)"

// A sleeping Sync wakes late, and by how much is the machine's doing, not
// the node's: 0.1 ms on a quiet sandbox, 0.3 ms beside another busy process,
// 0.9 ms and more in the minutes-long periods in which the host gives its
// cores to other guests. Every workload here waits for flushes most of the
// time, so its throughput is the reciprocal of the mean flush time to within
// 3 % (history-lookup: 681 inputs/s at 1.30 ms, 452 at 1.91 ms, in two
// sub-windows of one run), and with a plain sleep the benchmark measured the
// host's timer. The device therefore holds its *mean* flush time at
// flushLatency by integral control: it asks for a sleep that is shorter by
// trim, and moves trim by 1/trimDamping of every flush's error. One flush's
// error counts for at most maxFlushError, so a stall of the whole process (a
// collection, a stolen core) is not paid back by a run of short flushes.
const (
	trimDamping   = 16
	maxFlushError = flushLatency / 2
	maxTrim       = flushLatency - 50*time.Microsecond
	initialTrim   = 100 * time.Microsecond
)

// fileClass separates the two kinds of file the page store writes.
type fileClass int

const (
	classWAL fileClass = iota
	classData
	numClasses
)

func (c fileClass) String() string {
	if c == classWAL {
		return "wal"
	}
	return "data"
}

func classOf(path string) fileClass {
	if strings.HasPrefix(filepath.Base(path), "wal.") {
		return classWAL
	}
	return classData
}

// ioCounters are the device-side counters of one file class.
type ioCounters struct {
	Reads, ReadBytes, ReadNs    int64
	Writes, WriteBytes, WriteNs int64
	Syncs, SyncNs               int64
}

func (a ioCounters) sub(b ioCounters) ioCounters {
	return ioCounters{
		a.Reads - b.Reads, a.ReadBytes - b.ReadBytes, a.ReadNs - b.ReadNs,
		a.Writes - b.Writes, a.WriteBytes - b.WriteBytes, a.WriteNs - b.WriteNs,
		a.Syncs - b.Syncs, a.SyncNs - b.SyncNs,
	}
}

type atomicIO struct {
	reads, readBytes, readNs    atomic.Int64
	writes, writeBytes, writeNs atomic.Int64
	syncs, syncNs               atomic.Int64
}

// device is the benchmark-owned store.VFS: the operating system's files
// with every read, write and sync counted and timed per file class, and the
// physical fsync replaced by the modelled flush.
type device struct {
	os    store.VFS
	class [numClasses]atomicIO
	tr    *tracer

	// spin makes Sync wait out the flush latency yielding in a loop instead
	// of sleeping, which is exact flush by flush. A restart of a small store
	// is six flushes and little else, too few for a mean to settle; the
	// restart cycles and the open replays, where nothing else wants the CPU,
	// therefore spin. Under load the device sleeps: spinning through some
	// 700 flushes a second takes most of a core from the node, and even
	// spinning only the last 0.4 ms of each flush cost 8 % throughput on
	// http-forward and doubled its spread.
	spin atomic.Bool

	trim atomic.Int64 // ns the next sleep is shortened by
}

func newDevice(tr *tracer) *device {
	d := &device{os: store.OSFileSystem(), tr: tr}
	d.trim.Store(int64(initialTrim))
	return d
}

func (d *device) snapshot() [numClasses]ioCounters {
	var out [numClasses]ioCounters
	for i := range d.class {
		c := &d.class[i]
		out[i] = ioCounters{
			c.reads.Load(), c.readBytes.Load(), c.readNs.Load(),
			c.writes.Load(), c.writeBytes.Load(), c.writeNs.Load(),
			c.syncs.Load(), c.syncNs.Load(),
		}
	}
	return out
}

func (d *device) OpenFile(path string) (store.File, error) {
	f, err := d.os.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: f, dev: d, class: classOf(path)}, nil
}

func (d *device) Remove(path string) error { return d.os.Remove(path) }

func (d *device) ReadDir(dir string) ([]string, error) { return d.os.ReadDir(dir) }

type meteredFile struct {
	store.File
	dev   *device
	class fileClass
}

func (f *meteredFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	c := &f.dev.class[f.class]
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
	c.readNs.Add(int64(time.Since(t0)))
	f.dev.tr.deviceOp("store.read", f.class, t0, n)
	return n, err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	c := &f.dev.class[f.class]
	c.writes.Add(1)
	c.writeBytes.Add(int64(n))
	c.writeNs.Add(int64(time.Since(t0)))
	f.dev.tr.deviceOp("store.write", f.class, t0, n)
	return n, err
}

func (f *meteredFile) Sync() error {
	t0 := time.Now()
	if f.dev.spin.Load() {
		for time.Since(t0) < flushLatency {
			runtime.Gosched()
		}
	} else {
		trim := f.dev.trim.Load()
		sleep(flushLatency - time.Duration(trim))
		late := min(max(time.Since(t0)-flushLatency, -maxFlushError), maxFlushError)
		// Concurrent flushes may lose one another's update; the next one
		// makes up for it.
		f.dev.trim.Store(min(max(trim+int64(late)/trimDamping, 0), int64(maxTrim)))
	}
	c := &f.dev.class[f.class]
	c.syncs.Add(1)
	c.syncNs.Add(int64(time.Since(t0)))
	f.dev.tr.deviceOp("store.flush", f.class, t0, 0)
	return nil
}
