package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demaq/internal/faultinject"
)

// TestWriteBackFlushesPerBatch pins the batched write-back: pages evicted
// by one inserter, and the dirty set of a fuzzy checkpoint, cost one log
// flush per writeBatch pages, not one per page.
func TestWriteBackFlushesPerBatch(t *testing.T) {
	vfs := &countingVFS{VFS: OSFileSystem()}
	opts := DefaultOptions()
	opts.VFS = vfs
	opts.BufferPages = 1024
	opts.WALSegmentSize = 1 << 40 // no segment roll, whose seal is a WAL sync
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.CreateHeap("h")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// One inserter in one open transaction: no commit flushes the log, so
	// every WAL sync below is one a write-back waited for.
	rec := bytes.Repeat([]byte{7}, inlineMax) // one record per page
	pages := 8 * opts.BufferPages
	st0 := s.Stats()
	walSyncs, written := vfs.walSyncs.Load(), vfs.dataWrites.Load()
	tx := s.Begin()
	for i := 0; i < pages; i++ {
		if _, err := tx.Insert(h, rec); err != nil {
			t.Fatal(err)
		}
	}
	walSyncs, written = vfs.walSyncs.Load()-walSyncs, vfs.dataWrites.Load()-written
	if written < int64(pages-opts.BufferPages) {
		t.Fatalf("%d inserted pages wrote back only %d through a %d-page pool", pages, written, opts.BufferPages)
	}
	if limit := (written+writeBatch-1)/writeBatch + 2; walSyncs > limit {
		t.Fatalf("evicting %d pages took %d WAL syncs, want at most %d", written, walSyncs, limit)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	pw, wbf := st.PagesWritten-st0.PagesWritten, st.WriteBackFlushes-st0.WriteBackFlushes
	if pw != uint64(written) || wbf > uint64(walSyncs) {
		t.Fatalf("Stats: %d pages written, %d write-back flushes; the data file saw %d page writes and the WAL %d syncs",
			pw, wbf, written, walSyncs)
	}
	if wbf == 0 || pw/wbf <= 1 {
		t.Fatalf("Stats: %d pages written over %d write-back flushes, want more than one page per flush", pw, wbf)
	}

	// A fuzzy checkpoint of K dirty pages: every page needs a fresh image
	// after the fence, each batch one flush, plus the end record's.
	k := int64(st.DirtyPages)
	if k < 4*writeBatch {
		t.Fatalf("only %d dirty pages before the checkpoint", k)
	}
	walSyncs = vfs.walSyncs.Load()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	walSyncs = vfs.walSyncs.Load() - walSyncs
	if limit := (k+writeBatch-1)/writeBatch + 2; walSyncs > limit {
		t.Fatalf("checkpointing %d dirty pages took %d WAL syncs, want at most %d", k, walSyncs, limit)
	}
}

// wbModel is what the writers of TestWriteBackBesideWriters committed:
// every record's last committed bytes, and for a commit the crash cut off,
// the bytes it would have left.
type wbModel struct {
	mu        sync.Mutex
	committed map[RID][]byte
	rids      []RID
	maybe     map[RID][]byte
	commits   atomic.Int64
}

func (m *wbModel) pick(rng *rand.Rand) (RID, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.rids) == 0 {
		return NilRID, nil, false
	}
	rid := m.rids[rng.Intn(len(m.rids))]
	return rid, m.committed[rid], true
}

// TestWriteBackBesideWriters runs write-backs beside the writers they
// copy: two inserters and an updater that dirties committed records again
// keep a 64-frame pool evicting while a checkpoint loop writes back its
// dirty snapshots. The filesystem then crashes under them, dropping,
// keeping or tearing every unsynced write. After reopening, every record
// committed before the crash reads back with its last committed bytes, a
// scan of each heap finds exactly the committed records (plus, at most,
// the ones of a commit the crash cut off), and no page carries an LSN
// beyond the log.
func TestWriteBackBesideWriters(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			fs := faultinject.NewFaultFS(seed)
			opts := Options{VFS: fs, BufferPages: 64, SyncCommits: true, UnloggedDeletes: true}
			s, err := Open("wb", opts)
			if err != nil {
				t.Fatal(err)
			}
			var heaps [2]HeapID
			for i := range heaps {
				if heaps[i], err = s.CreateHeap(fmt.Sprint("h", i)); err != nil {
					t.Fatal(err)
				}
			}
			m := &wbModel{committed: map[RID][]byte{}, maybe: map[RID][]byte{}}
			stop := make(chan struct{})
			stopped := func() bool {
				select {
				case <-stop:
					return true
				default:
					return false
				}
			}
			var wg sync.WaitGroup
			for i, h := range heaps {
				wg.Add(1)
				go func(rng *rand.Rand, h HeapID) {
					defer wg.Done()
					for !stopped() {
						tx := s.Begin()
						var rids []RID
						var recs [][]byte
						for j := 1 + rng.Intn(3); j > 0; j-- {
							n := 200 + rng.Intn(3000)
							if rng.Intn(8) == 0 {
								n = ovChunkMax + rng.Intn(2*ovChunkMax)
							}
							rec := make([]byte, n)
							rng.Read(rec)
							rid, err := tx.Insert(h, rec)
							if err != nil {
								return
							}
							rids, recs = append(rids, rid), append(recs, rec)
						}
						err := tx.Commit()
						m.mu.Lock()
						for j, rid := range rids {
							if err == nil {
								m.committed[rid] = recs[j]
								m.rids = append(m.rids, rid)
							} else {
								m.maybe[rid] = recs[j]
							}
						}
						m.mu.Unlock()
						if err != nil {
							return
						}
						m.commits.Add(1)
					}
				}(rand.New(rand.NewSource(seed*10+int64(i))), h)
			}
			wg.Add(1)
			go func(rng *rand.Rand) { // the updater
				defer wg.Done()
				for !stopped() {
					rid, old, ok := m.pick(rng)
					if !ok {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					off := rng.Intn(min(len(old), overflowPrefix))
					val := byte(rng.Intn(256))
					next := append([]byte(nil), old...)
					next[off] = val
					tx := s.Begin()
					if err := tx.SetByte(rid, off, val); err != nil {
						return
					}
					err := tx.Commit()
					m.mu.Lock()
					if err == nil {
						m.committed[rid] = next
					} else {
						m.maybe[rid] = next
					}
					m.mu.Unlock()
					if err != nil {
						return
					}
					m.commits.Add(1)
				}
			}(rand.New(rand.NewSource(seed*10 + 9)))
			wg.Add(1)
			go func() { // the checkpoint loop
				defer wg.Done()
				for !stopped() {
					if err := s.Checkpoint(); err != nil {
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()

			for m.commits.Load() < 600 {
				time.Sleep(time.Millisecond)
			}
			fs.CrashNow()
			close(stop)
			wg.Wait()
			if st := s.Stats(); st.PagesWritten < 2*uint64(opts.BufferPages) {
				t.Fatalf("only %d pages written back before the crash", st.PagesWritten)
			}
			s.CrashForTest()
			fs.ClearFault()

			s, err = Open("wb", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for rid, want := range m.committed {
				got, err := s.Read(rid)
				if err != nil {
					t.Fatalf("committed record %s: %v", rid, err)
				}
				if !bytes.Equal(got, want) && !bytes.Equal(got, m.maybe[rid]) {
					t.Fatalf("committed record %s reads back %d bytes that are not its last committed ones", rid, len(got))
				}
			}
			found := 0
			for _, h := range heaps {
				err := s.Scan(h, func(rid RID, data []byte) bool {
					want, ok := m.committed[rid]
					if !ok {
						want, ok = m.maybe[rid]
					}
					if !ok || len(data) != len(want) {
						t.Errorf("scan finds record %s of %d bytes that no writer committed", rid, len(data))
					}
					if _, ok := m.committed[rid]; ok {
						found++
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if found != len(m.committed) {
				t.Fatalf("scans find %d of %d committed records", found, len(m.committed))
			}
			if err := s.VerifyPageLSNs(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// batchCrashWorkload is the deterministic single-writer workload of the
// write-back crash sweeps: rounds of inserts and in-place updates through
// a 64-frame pool, so evictions write back in batches. With checkpoints, a
// fuzzy checkpoint follows every other round, whose dirty set goes out in
// batches of up to writeBatch pages and leaves evictions mostly clean
// frames to drop. It records each commit in committed and stops at the
// first error.
func batchCrashWorkload(s *Store, committed map[RID][]byte, checkpoints bool) error {
	h, err := s.CreateHeap("q")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	var rids []RID
	for round := 0; round < 6; round++ {
		tx := s.Begin()
		var recs [][]byte
		for j := 0; j < 40; j++ {
			rec := make([]byte, 1500+rng.Intn(1500))
			rng.Read(rec)
			rid, err := tx.Insert(h, rec)
			if err != nil {
				return err
			}
			rids, recs = append(rids, rid), append(recs, rec)
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		for i, rec := range recs {
			committed[rids[len(rids)-len(recs)+i]] = rec
		}
		tx = s.Begin()
		updated := map[RID][]byte{}
		for j := 0; j < 20; j++ {
			rid := rids[rng.Intn(len(rids))]
			rec := updated[rid]
			if rec == nil {
				rec = append([]byte(nil), committed[rid]...)
			}
			off, val := rng.Intn(overflowPrefix), byte(rng.Intn(256))
			if err := tx.SetByte(rid, off, val); err != nil {
				return err
			}
			rec[off] = val
			updated[rid] = rec
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		for rid, rec := range updated {
			committed[rid] = rec
		}
		if checkpoints && round%2 == 1 {
			if err := s.Checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

func batchCrashOptions(fs *faultinject.FaultFS) Options {
	return Options{VFS: fs, BufferPages: 64, SyncCommits: true, UnloggedDeletes: true}
}

// batchCrashScenario sweeps batchCrashWorkload's page writes of the data
// file that site selects, given whether the operation before it was a page
// write too, tearing that write. After each crash it reopens the store and
// checks every committed record.
func batchCrashScenario(checkpoints bool, short int, site func(afterPageWrite bool) bool) faultinject.Scenario[*batchRun] {
	isPageWrite := func(p faultinject.FaultPoint) bool {
		return p.Op == "write" && p.Class == "data" && p.Len == PageSize
	}
	return faultinject.Scenario[*batchRun]{
		Short: short, Fault: faultinject.Tear, Exact: true, MinSites: 50,
		Select: func(window []faultinject.FaultPoint, i int) bool {
			return i > 0 && isPageWrite(window[i]) && site(isPageWrite(window[i-1]))
		},
		// The format's writes are not a batch.
		Setup: func(t testing.TB, fs *faultinject.FaultFS, _ *faultinject.FaultNet) *batchRun {
			s, err := Open("sweep", batchCrashOptions(fs))
			if err != nil {
				t.Fatal(err)
			}
			return &batchRun{fs: fs, s: s, committed: map[RID][]byte{}}
		},
		Run: func(t testing.TB, r *batchRun) error {
			err := batchCrashWorkload(r.s, r.committed, checkpoints)
			r.s.CrashForTest()
			if err == nil && r.fs.Crashed() {
				// The model holds only if the workload stopped at the crash.
				return errors.New("no error after the crash")
			}
			return err
		},
		Check: func(t testing.TB, r *batchRun) {
			s, err := Open("sweep", batchCrashOptions(r.fs))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			for rid, want := range r.committed {
				got, err := s.Read(rid)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("committed record %s: %v, or not its committed bytes", rid, err)
				}
			}
			if h, ok := s.Heap("q"); ok {
				n := 0
				if err := s.Scan(h, func(rid RID, _ []byte) bool {
					if _, ok := r.committed[rid]; !ok {
						t.Errorf("scan finds uncommitted record %s", rid)
					}
					n++
					return true
				}); err != nil {
					t.Fatalf("scan: %v", err)
				}
				if n != len(r.committed) {
					t.Fatalf("scan finds %d of %d committed records", n, len(r.committed))
				}
			}
			if err := s.VerifyPageLSNs(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		},
	}
}

// batchRun is a write-back sweep's state: the store the workload runs on
// and the records it committed before the crash.
type batchRun struct {
	fs        *faultinject.FaultFS
	s         *Store
	committed map[RID][]byte
}

// TestWriteBackBatchCrashSweep crashes between the page writes of one
// write-back batch — evictions' and checkpoints' — and tears the write it
// crashes in. The rest of the batch never reaches the disk, the pages
// before it may or may not. The full-page images the batch logged before
// its writes must let recovery restore every page: each committed record
// reads back with its committed bytes and a scan finds nothing else.
func TestWriteBackBatchCrashSweep(t *testing.T) {
	// A site is a page write that directly follows another page write of
	// the data file: the two belong to one batch.
	faultinject.Sweep(t, batchCrashScenario(true, 23, func(afterPageWrite bool) bool { return afterPageWrite }))
}

// TestWriteBackEvictionCrashSweep is TestWriteBackBatchCrashSweep without
// checkpoints, so every page write is an eviction's: it cleans a shard's
// least recently used dirty frames inside an open transaction, and the
// crash cuts that transaction off. Every page write is a site, the first
// of a batch too, which directly follows the batch's log flush. Pages
// written back more than once since the fence carry no image of their
// own; recovery restores them from their first.
func TestWriteBackEvictionCrashSweep(t *testing.T) {
	faultinject.Sweep(t, batchCrashScenario(false, 13, func(bool) bool { return true }))
}

// gate holds the first operation it matches until the test opens it.
type gate struct {
	match   func(path, op string, off int64, p []byte) bool
	reached chan struct{} // closed when the operation arrives
	open    chan struct{} // closed by the test to let it through
}

// gateVFS holds chosen writes and syncs, so a test can keep an I/O step of
// the store in flight for as long as it needs.
type gateVFS struct {
	VFS
	mu    sync.Mutex
	gates []*gate
}

type gateFile struct {
	File
	v    *gateVFS
	path string
}

func (v *gateVFS) arm(match func(path, op string, off int64, p []byte) bool) *gate {
	g := &gate{match: match, reached: make(chan struct{}), open: make(chan struct{})}
	v.mu.Lock()
	v.gates = append(v.gates, g)
	v.mu.Unlock()
	return g
}

func (v *gateVFS) pass(path, op string, off int64, p []byte) {
	v.mu.Lock()
	for i, g := range v.gates {
		if g.match(path, op, off, p) {
			v.gates = append(v.gates[:i], v.gates[i+1:]...)
			v.mu.Unlock()
			close(g.reached)
			<-g.open
			return
		}
	}
	v.mu.Unlock()
}

func (v *gateVFS) OpenFile(path string) (File, error) {
	f, err := v.VFS.OpenFile(path)
	if err != nil {
		return f, err
	}
	return gateFile{f, v, path}, nil
}

func (f gateFile) WriteAt(p []byte, off int64) (int, error) {
	f.v.pass(f.path, "write", off, p)
	return f.File.WriteAt(p, off)
}

func (f gateFile) Sync() error {
	f.v.pass(f.path, "sync", 0, nil)
	return f.File.Sync()
}

// TestCheckpointWaitsForWriteBackInFlight holds an eviction's write-back
// of a page in the fuzzy checkpoint's dirty set in flight, with the page
// dirtied again meanwhile. The checkpoint may neither skip the page nor
// start a second write-back of it: it must wait for the one in flight,
// then write the newer bytes, so its data-file sync covers the page and
// the older copy never lands after the newer one.
func TestCheckpointWaitsForWriteBackInFlight(t *testing.T) {
	gv := &gateVFS{VFS: faultinject.NewFaultFS(1)}
	opts := Options{VFS: gv, BufferPages: 64, SyncCommits: true, UnloggedDeletes: true}
	s, err := Open("inflight", opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	// Two records a page, on pages 2 to 75 at least.
	onPage := map[PageID]RID{}
	tx := s.Begin()
	for last := PageID(0); last < 75; {
		rid, err := tx.Insert(h, bytes.Repeat([]byte{1}, 3500))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := onPage[rid.Page]; !ok {
			onPage[rid.Page] = rid
		}
		last = rid.Page
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty pages 2 to 57: more than one batch, and every shard at most
	// at its capacity of 4 frames. Shard 9 holds pages 9, 25, 41 and 57.
	tx = s.Begin()
	for pid := PageID(2); pid <= 57; pid++ {
		if err := tx.SetByte(onPage[pid], 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	const hot = PageID(57)
	frameOf := func(pid PageID) (lsn uint64, claimed bool) {
		sh := s.pool.shard(pid)
		sh.mu.Lock()
		f := sh.frames[pid]
		sh.mu.Unlock()
		if f == nil {
			t.Fatalf("page %d is not buffered", pid)
		}
		f.latch.RLock()
		lsn = f.pg.lsn()
		f.latch.RUnlock()
		sh.mu.Lock()
		claimed = f.writing != nil
		sh.mu.Unlock()
		return lsn, claimed
	}
	oldLSN, _ := frameOf(hot)
	isWAL := func(path string) bool { return filepath.Base(path) != dataFileName }

	// Hold the checkpoint in its first batch's log flush: pages 2 to 33
	// are claimed, 41 and 57 are not.
	walGate := gv.arm(func(path, op string, _ int64, _ []byte) bool { return op == "sync" && isWAL(path) })
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- s.Checkpoint() }()
	<-walGate.reached

	// A read of page 73 overfills shard 9, whose unpinned frames are all
	// dirty: the eviction claims 41 and 57 and waits for the same flush.
	// Hold its write of page 57's older copy.
	pageGate := gv.arm(func(path, op string, off int64, p []byte) bool {
		return op == "write" && !isWAL(path) && off == int64(hot)*PageSize && binary.LittleEndian.Uint64(p) == oldLSN
	})
	readDone := make(chan error, 1)
	go func() {
		_, err := s.Read(onPage[73])
		readDone <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, claimed := frameOf(hot); claimed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no write-back of page 57 started")
		}
	}
	// Dirty page 57 again while its write-back is in flight; the commit
	// waits for the held flush.
	tx = s.Begin()
	if err := tx.SetByte(onPage[hot], 0, 3); err != nil {
		t.Fatal(err)
	}
	commitDone := make(chan error, 1)
	go func() { commitDone <- tx.Commit() }()
	close(walGate.open)
	<-pageGate.reached
	if err := <-commitDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ckptDone:
		t.Fatalf("checkpoint returned (%v) while a write-back of page %d, in its dirty set, was in flight", err, hot)
	case <-time.After(200 * time.Millisecond):
	}
	close(pageGate.open)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open("inflight", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Read(onPage[hot])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 {
		t.Fatalf("page %d's record reads back %d, want the last committed 3", hot, got[0])
	}
}
