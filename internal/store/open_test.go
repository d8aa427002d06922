package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"demaq/internal/faultinject"
)

// poolRebuildChainsAndFreeList is the open path's former rebuild, kept as
// the reference the one-pass rebuild is held to: it walks every heap chain
// through the buffer pool to find the tail pages, following the overflow
// chains of live records, then reads every page through the pool for its
// free flag, clearing the flag of referenced pages instead of listing them.
func (s *Store) poolRebuildChainsAndFreeList() error {
	referenced := map[PageID]bool{}
	for _, h := range s.heaps {
		cur := h.first
		last := cur
		for cur != InvalidPage {
			f, err := s.pool.get(cur)
			if err != nil {
				return err
			}
			for slot := uint16(0); slot < f.pg.slotCount(); slot++ {
				data, ok := f.pg.read(slot)
				if !ok || len(data) == 0 {
					continue
				}
				if data[0] == recKindOverflow {
					ov := PageID(binary.LittleEndian.Uint32(data[1:]))
					for ov != InvalidPage {
						referenced[ov] = true
						of, err := s.pool.get(ov)
						if err != nil {
							return err
						}
						next := of.pg.next()
						s.pool.unpin(of, false)
						ov = next
					}
				}
			}
			last = cur
			next := f.pg.next()
			s.pool.unpin(f, false)
			cur = next
		}
		h.last = last
	}
	s.freeList = s.freeList[:0]
	for pid := PageID(2); pid < PageID(s.pageCount); pid++ {
		f, err := s.pool.get(pid)
		if err != nil {
			return err
		}
		free := f.pg.flags()&flagFree != 0
		if free && referenced[pid] {
			f.pg.setFlags(f.pg.flags() &^ flagFree)
			s.pool.unpin(f, true)
			continue
		}
		s.pool.unpin(f, false)
		if free {
			s.freeList = append(s.freeList, pid)
		}
	}
	return nil
}

// overflowChain returns the overflow pages of the record at rid.
func overflowChain(t *testing.T, s *Store, rid RID) []PageID {
	t.Helper()
	f, err := s.pool.get(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := f.pg.read(rid.Slot)
	s.pool.unpin(f, false)
	if !ok || rec[0] != recKindOverflow {
		t.Fatalf("record %s is not an overflow record", rid)
	}
	return s.chainPages(PageID(binary.LittleEndian.Uint32(rec[1:])))
}

// patchPage rewrites bytes of one page of a closed store's data file.
func patchPage(t *testing.T, dir string, pid PageID, fn func(pg *page)) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, dataFileName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pg := page{id: pid, buf: make([]byte, PageSize)}
	if _, err := f.ReadAt(pg.buf, int64(pid)*PageSize); err != nil {
		t.Fatal(err)
	}
	fn(&pg)
	if _, err := f.WriteAt(pg.buf, int64(pid)*PageSize); err != nil {
		t.Fatal(err)
	}
}

// TestFreePageRepair pins the open path's free-page repair: a page flagged
// free on disk that a live record's overflow chain still references — the
// state a crash between an overflow free and its transaction's outcome
// leaves — loses its flag and stays off the free list, so the record reads
// back intact and new inserts never reuse its pages.
func TestFreePageRepair(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("overflow "), 3000)
	tx := s.Begin()
	rid, err := tx.Insert(h, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	chain := overflowChain(t, s, rid)
	if len(chain) < 3 {
		t.Fatalf("overflow chain of %d pages, want several", len(chain))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range chain {
		patchPage(t, dir, pid, func(pg *page) { pg.setFlags(pg.flags() | flagFree) })
	}

	s, err = Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range s.freeList {
		if slices.Contains(chain, pid) {
			t.Fatalf("referenced overflow page %d is on the free list %v", pid, s.freeList)
		}
	}
	tx = s.Begin()
	rid2, err := tx.Insert(h, bytes.Repeat([]byte("second "), 4000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := tx.Insert(h, bytes.Repeat([]byte{byte(i)}, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range overflowChain(t, s, rid2) {
		if slices.Contains(chain, pid) {
			t.Fatalf("new overflow record reuses page %d of a live record's chain", pid)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("the record whose chain was flagged free did not read back intact")
	}
	for _, pid := range chain {
		f, err := s.pool.get(pid)
		if err != nil {
			t.Fatal(err)
		}
		flags := f.pg.flags()
		s.pool.unpin(f, false)
		if flags&flagFree != 0 {
			t.Fatalf("page %d still flagged free after the repair was checkpointed", pid)
		}
	}
}

// rebuildState is what the chain and free-list rebuild computes.
type rebuildState struct {
	last map[uint32]PageID
	free []PageID
}

func captureRebuild(s *Store) rebuildState {
	st := rebuildState{last: map[uint32]PageID{}, free: slices.Clone(s.freeList)}
	for id, h := range s.heaps {
		st.last[id] = h.last
	}
	slices.Sort(st.free)
	return st
}

// TestRebuildMatchesPoolWalk holds the one-pass rebuild to the pool walk
// it replaced: on seeded stores with several heaps, overflow records,
// aborted inserts, retention deletes that free pages, fuzzy checkpoints and
// crash-reopens, both give every heap the same tail page and the same free
// list as a set.
func TestRebuildMatchesPoolWalk(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := faultinject.NewFaultFS(seed)
			opts := Options{VFS: fs, SyncCommits: true, UnloggedDeletes: seed%2 == 0, BufferPages: 64}
			s, err := Open("rb", opts)
			if err != nil {
				t.Fatal(err)
			}
			names := []string{"a", "b", "c", "d"}
			live := map[string][]RID{}
			for round := 0; round < 10; round++ {
				for op := 0; op < 30; op++ {
					name := names[rng.Intn(len(names))]
					h, err := s.CreateHeap(name)
					if err != nil {
						t.Fatal(err)
					}
					switch r := rng.Intn(10); {
					case r < 7:
						n := 20 + rng.Intn(1500)
						if rng.Intn(6) == 0 {
							n = inlineMax + rng.Intn(3*ovChunkMax)
						}
						tx := s.Begin()
						rid, err := tx.Insert(h, bytes.Repeat([]byte{byte(op)}, n))
						if err != nil {
							t.Fatal(err)
						}
						if rng.Intn(8) == 0 {
							if err := tx.Abort(); err != nil {
								t.Fatal(err)
							}
							continue
						}
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
						live[name] = append(live[name], rid)
					case r < 9:
						rids := live[name]
						k := rng.Intn(len(rids) + 1)
						if err := s.BatchDelete(h, rids[:k]); err != nil {
							t.Fatal(err)
						}
						live[name] = rids[k:]
					default:
						if err := s.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				switch rng.Intn(3) {
				case 0:
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				default:
					fs.CrashNow()
					s.CrashForTest()
					fs.ClearFault()
				}
				if s, err = Open("rb", opts); err != nil {
					t.Fatalf("round %d: reopen: %v", round, err)
				}
				// A crash may lose the newest commits; retention only
				// deletes what it still finds.
				for name, rids := range live {
					h, _ := s.Heap(name)
					var keep []RID
					s.Scan(h, func(rid RID, _ []byte) bool {
						if slices.Contains(rids, rid) {
							keep = append(keep, rid)
						}
						return true
					})
					live[name] = keep
				}
				onePass := captureRebuild(s)
				if err := s.poolRebuildChainsAndFreeList(); err != nil {
					t.Fatal(err)
				}
				ref := captureRebuild(s)
				for id, last := range ref.last {
					if onePass.last[id] != last {
						t.Fatalf("round %d: heap %d tail %d, pool walk says %d", round, id, onePass.last[id], last)
					}
				}
				if !slices.Equal(onePass.free, ref.free) {
					t.Fatalf("round %d: free list %v, pool walk says %v", round, onePass.free, ref.free)
				}
				if err := s.VerifyPageLSNs(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// countingVFS counts the bytes read from, the page writes to and the syncs
// of the data file, and the syncs of every other file (the WAL segments).
type countingVFS struct {
	VFS
	dataReads, dataWrites, dataSyncs, walSyncs atomic.Int64
}

type countingFile struct {
	File
	v    *countingVFS
	data bool
}

func (v *countingVFS) OpenFile(path string) (File, error) {
	f, err := v.VFS.OpenFile(path)
	if err != nil {
		return f, err
	}
	return countingFile{f, v, filepath.Base(path) == dataFileName}, nil
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if f.data {
		f.v.dataReads.Add(int64(n))
	}
	return n, err
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	if f.data && len(p) == PageSize {
		f.v.dataWrites.Add(1)
	}
	return f.File.WriteAt(p, off)
}

func (f countingFile) Sync() error {
	if f.data {
		f.v.dataSyncs.Add(1)
	} else {
		f.v.walSyncs.Add(1)
	}
	return f.File.Sync()
}

// TestOpenReadsDataFileOnce pins "one pass": a clean reopen reads the data
// file once, plus the header and the catalog, however small the buffer
// pool.
func TestOpenReadsDataFileOnce(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.BufferPages = 32
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h, err := s.CreateHeap(fmt.Sprint("h", i))
		if err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		for j := 0; j < 400; j++ {
			n := 500
			if j%50 == 0 {
				n = 3 * ovChunkMax
			}
			if _, err := tx.Insert(h, bytes.Repeat([]byte{byte(j)}, n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, dataFileName))
	if err != nil {
		t.Fatal(err)
	}

	vfs := &countingVFS{VFS: OSFileSystem()}
	opts.VFS = vfs
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const slack = 3 * PageSize // the header twice and the catalog page
	if got := vfs.dataReads.Load(); got > st.Size()+slack {
		t.Fatalf("Open read %d bytes of a %d-byte data file, want at most %d", got, st.Size(), st.Size()+slack)
	}
	if st.Size() < 100*PageSize {
		t.Fatalf("data file of %d pages is too small to tell one pass from two", st.Size()/PageSize)
	}
}

// TestIdleRestartSyncsOnce counts the flushes of an idle restart: after a
// Close, an Open with nothing to recover writes and syncs nothing, and the
// following Close with nothing written since only writes and syncs the
// next header slot: one slot write and one data-file sync.
func TestIdleRestartSyncsOnce(t *testing.T) {
	fs := faultinject.NewFaultFS(1)
	opts := Options{VFS: fs, SyncCommits: true}
	s, err := Open("idle", opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	if _, err := tx.Insert(h, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for cycle := 0; cycle < 3; cycle++ {
		before := fs.Ops()
		s, err := Open("idle", opts)
		if err != nil {
			t.Fatal(err)
		}
		if ops := fs.Trace()[before:]; len(ops) != 0 {
			t.Fatalf("cycle %d: idle Open performed %v", cycle, ops)
		}
		before = fs.Ops()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var syncs, writes []faultinject.FaultPoint
		for _, p := range fs.Trace()[before:] {
			switch {
			case p.Op == "sync":
				syncs = append(syncs, p)
			case p.Op == "write" && p.Off < PageSize:
				writes = append(writes, p)
			default:
				t.Fatalf("cycle %d: idle Close performed %v", cycle, p)
			}
		}
		if len(syncs) != 1 || syncs[0].Path != filepath.Join("idle", dataFileName) || len(writes) != 1 {
			t.Fatalf("cycle %d: idle Close performed syncs %v and header writes %v, want one data-file sync and one slot write", cycle, syncs, writes)
		}
	}
}

// TestFaultFSHeaderClass: a crash site of class header is a rewrite of the
// data file's first page, PageSize bytes, and of no other file.
func TestFaultFSHeaderClass(t *testing.T) {
	fs := faultinject.NewFaultFS(1)
	data, _ := fs.OpenFile(filepath.Join("d", dataFileName))
	log, _ := fs.OpenFile(filepath.Join("d", walSegName(1)))
	data.WriteAt(make([]byte, 2*PageSize), 0)
	log.WriteAt(make([]byte, 2*PageSize), 0)
	from := fs.Ops()
	data.WriteAt([]byte{1}, PageSize-1)
	data.WriteAt([]byte{1}, PageSize)
	log.WriteAt([]byte{1}, 0)
	var got []string
	for _, p := range fs.Trace()[from:] {
		got = append(got, p.Class)
	}
	if want := []string{"header", "data", "wal"}; !slices.Equal(got, want) {
		t.Fatalf("the writes are of classes %v, want %v", got, want)
	}
}

// TestIdleHeaderWriteCrash crashes at every mutation of idle restarts —
// the header slot write and its sync — under several resolutions of the
// pending writes; each reopen replays nothing and finds the same records.
func TestIdleHeaderWriteCrash(t *testing.T) {
	opts := func(fs *faultinject.FaultFS) Options { return Options{VFS: fs, SyncCommits: true} }
	// A site resolves its crash with a seed of its subtest's name, so each
	// seedN parent gives every site another resolution.
	for seed := 1; seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			faultinject.Sweep(t, faultinject.Scenario[*faultinject.FaultFS]{
				Exact: true,
				Setup: func(t testing.TB, fs *faultinject.FaultFS, _ *faultinject.FaultNet) *faultinject.FaultFS {
					s, err := Open("ih", opts(fs))
					if err != nil {
						t.Fatal(err)
					}
					h, err := s.CreateHeap("q")
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 20; i++ {
						tx := s.Begin()
						if _, err := tx.Insert(h, []byte(fmt.Sprint("rec-", i))); err != nil {
							t.Fatal(err)
						}
						if err := tx.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					return fs
				},
				// Three idle restarts.
				Run: func(_ testing.TB, fs *faultinject.FaultFS) error {
					for i := 0; i < 3; i++ {
						s, err := Open("ih", opts(fs))
						if err != nil {
							return err
						}
						if err := s.Close(); err != nil {
							return err
						}
					}
					return nil
				},
				Check: func(t testing.TB, fs *faultinject.FaultFS) {
					s, err := Open("ih", opts(fs))
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					defer s.Close()
					if n := s.Stats().RecoveryRecordsReplayed; n != 0 {
						t.Fatalf("replayed %d records", n)
					}
					h, _ := s.Heap("q")
					var got []string
					s.Scan(h, func(_ RID, p []byte) bool { got = append(got, string(p)); return true })
					if len(got) != 20 || got[0] != "rec-0" || got[19] != "rec-19" {
						t.Fatalf("records %v", got)
					}
				},
			})
		})
	}
}

// TestOpenFailsOnCorruptPage: the open pass names the page whose slotted
// layout is unsound instead of panicking on it later.
func TestOpenFailsOnCorruptPage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	rid, err := tx.Insert(h, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	patchPage(t, dir, rid.Page, func(pg *page) { pg.setSlot(rid.Slot, PageSize-2, 40) })
	s, err = Open(dir, DefaultOptions())
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a page whose cell lies outside it")
	}
	if want := fmt.Sprintf("heap %q: page %d", "q", rid.Page); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
}

// TestConcurrentScanBesideWriters runs Scan, which reads pages outside the
// buffer pool's frames, beside inserters, retention deletes and a pool
// small enough that pages are evicted and written back under the
// scanners: every record a scan hands out is one that was inserted, whole,
// and a scan sees every record committed before it began and not deleted
// since.
func TestConcurrentScanBesideWriters(t *testing.T) {
	s, err := Open(t.TempDir(), Options{BufferPages: 16, UnloggedDeletes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	// A record is its sequence number followed by a filler derived from it,
	// every tenth one long enough to spill into an overflow chain.
	record := func(seq uint64) []byte {
		n := 40 + int(seq%7)*60
		if seq%10 == 0 {
			n = inlineMax + 500
		}
		b := make([]byte, n)
		binary.LittleEndian.PutUint64(b, seq)
		for i := 8; i < n; i++ {
			b[i] = byte(seq) + byte(i)
		}
		return b
	}
	var (
		mu       sync.Mutex
		inserted []RID // RIDs no deleter has taken yet, in insertion order
		kept     = map[RID]uint64{}
		wg       sync.WaitGroup
		stop     atomic.Bool
		next     atomic.Uint64
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				seq := next.Add(1)
				tx := s.Begin()
				rid, err := tx.Insert(h, record(seq))
				if err == nil {
					err = tx.Commit()
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				inserted = append(inserted, rid)
				kept[rid] = seq
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			mu.Lock()
			var batch []RID
			if len(inserted) > 40 {
				batch = slices.Clone(inserted[:20])
				inserted = inserted[20:]
				for _, rid := range batch {
					delete(kept, rid)
				}
			}
			mu.Unlock()
			if err := s.BatchDelete(h, batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for scan := 0; next.Load() < 3000 && !t.Failed(); scan++ {
		mu.Lock()
		before := maps.Clone(kept)
		mu.Unlock()
		seen := map[RID]bool{}
		err := s.Scan(h, func(rid RID, p []byte) bool {
			if len(p) < 8 || !bytes.Equal(p, record(binary.LittleEndian.Uint64(p))) {
				t.Errorf("scan %d: record %s of %d bytes is not one that was inserted", scan, rid, len(p))
				return false
			}
			seen[rid] = true
			return true
		})
		if err != nil {
			t.Error(err)
			break
		}
		mu.Lock()
		for rid, seq := range before {
			// A deleted record's RID may be reused by a later insert.
			if kept[rid] == seq && !seen[rid] {
				t.Errorf("scan %d missed record %s, committed before it began", scan, rid)
			}
		}
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
}
