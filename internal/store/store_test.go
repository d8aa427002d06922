package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestHeapInsertRead(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h, err := s.CreateHeap("q1")
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	rid, err := tx.Insert(h, []byte("hello world"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := s.Read(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Fatalf("read back %q", data)
	}
}

func TestHeapManyRecordsScanOrder(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h, _ := s.CreateHeap("q")
	const n = 2000
	tx := s.Begin()
	for i := 0; i < n; i++ {
		if _, err := tx.Insert(h, []byte(fmt.Sprintf("record-%06d-%s", i, bytes.Repeat([]byte("x"), 50)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	i := 0
	err := s.Scan(h, func(_ RID, data []byte) bool {
		want := fmt.Sprintf("record-%06d", i)
		if string(data[:len(want)]) != want {
			t.Fatalf("scan order broken at %d: %q", i, data[:20])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d records, want %d", i, n)
	}
}

func TestOverflowRecords(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h, _ := s.CreateHeap("big")
	sizes := []int{inlineMax, inlineMax + 1, PageSize * 2, PageSize*3 + 17, 100_000}
	var rids []RID
	tx := s.Begin()
	for _, size := range sizes {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i % 251)
		}
		rid, err := tx.Insert(h, payload)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, size := range sizes {
		data, err := s.Read(rids[i])
		if err != nil {
			t.Fatalf("read size %d: %v", size, err)
		}
		if len(data) != size {
			t.Fatalf("size %d: got %d", size, len(data))
		}
		for j := range data {
			if data[j] != byte(j%251) {
				t.Fatalf("size %d: corruption at byte %d", size, j)
			}
		}
	}
}

func TestDeleteAndSetByte(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	r1, _ := tx.Insert(h, []byte{0, 'a', 'b'})
	r2, _ := tx.Insert(h, []byte{0, 'c', 'd'})
	tx.Commit()

	tx = s.Begin()
	if err := tx.Delete(h, r1); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetByte(r2, 0, 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	if _, err := s.Read(r1); err == nil {
		t.Fatal("deleted record should not read")
	}
	data, _ := s.Read(r2)
	if data[0] != 1 {
		t.Fatal("SetByte not applied")
	}
	n := 0
	s.Scan(h, func(RID, []byte) bool { n++; return true })
	if n != 1 {
		t.Fatalf("live records = %d", n)
	}
}

func TestAbortUndo(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	keep, _ := tx.Insert(h, []byte{0, 'k'})
	tx.Commit()

	tx = s.Begin()
	if _, err := tx.Insert(h, []byte{0, 'n'}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(h, keep); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetByte(keep, 0, 9); err == nil {
		// SetByte on deleted record must fail
		t.Fatal("SetByte on deleted record should fail")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// After abort: keep exists with original value, new record gone.
	data, err := s.Read(keep)
	if err != nil || data[0] != 0 || data[1] != 'k' {
		t.Fatalf("undo failed: %v %v", data, err)
	}
	n := 0
	s.Scan(h, func(RID, []byte) bool { n++; return true })
	if n != 1 {
		t.Fatalf("live records after abort = %d", n)
	}
}

func TestAbortUndoSetByte(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	rid, _ := tx.Insert(h, []byte{7, 'x'})
	tx.Commit()
	tx = s.Begin()
	tx.SetByte(rid, 0, 42)
	tx.Abort()
	data, _ := s.Read(rid)
	if data[0] != 7 {
		t.Fatalf("SetByte undo: %d", data[0])
	}
}

func TestCrashRecoveryCommitted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, _ := tx.Insert(h, []byte(fmt.Sprintf("msg-%d", i)))
		rids = append(rids, rid)
	}
	tx.Commit()
	s.CrashForTest() // dirty pages lost; WAL survives

	s2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2, ok := s2.Heap("q")
	if !ok {
		t.Fatal("heap lost after crash")
	}
	n := 0
	s2.Scan(h2, func(_ RID, data []byte) bool {
		want := fmt.Sprintf("msg-%d", n)
		if string(data) != want {
			t.Fatalf("record %d = %q", n, data)
		}
		n++
		return true
	})
	if n != 100 {
		t.Fatalf("recovered %d records, want 100", n)
	}
	// And RIDs are stable.
	data, err := s2.Read(rids[42])
	if err != nil || string(data) != "msg-42" {
		t.Fatalf("RID stability: %q %v", data, err)
	}
}

func TestCrashRecoveryUncommittedUndone(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, DefaultOptions())
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	tx.Insert(h, []byte("committed"))
	tx.Commit()

	tx2 := s.Begin()
	tx2.Insert(h, []byte("uncommitted"))
	// Force the WAL out (as if another commit flushed it) without
	// committing tx2, then crash.
	s.log.flush(^uint64(0) >> 1)
	s.CrashForTest()

	s2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2, _ := s2.Heap("q")
	var seen []string
	s2.Scan(h2, func(_ RID, data []byte) bool {
		seen = append(seen, string(data))
		return true
	})
	if len(seen) != 1 || seen[0] != "committed" {
		t.Fatalf("loser not undone: %v", seen)
	}
}

func TestCrashRecoveryOverflow(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, DefaultOptions())
	h, _ := s.CreateHeap("q")
	big := bytes.Repeat([]byte("payload!"), 8000) // 64 KB
	tx := s.Begin()
	rid, _ := tx.Insert(h, big)
	tx.Commit()
	s.CrashForTest()

	s2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	data, err := s2.Read(rid)
	if err != nil || !bytes.Equal(data, big) {
		t.Fatalf("overflow recovery: len=%d err=%v", len(data), err)
	}
}

func TestRecoveryIdempotentDoubleCrash(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, DefaultOptions())
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	tx.Insert(h, []byte("a"))
	tx.Commit()
	s.CrashForTest()

	// First recovery, then crash again immediately.
	s2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := s2.Heap("q")
	tx = s2.Begin()
	tx.Insert(h2, []byte("b"))
	tx.Commit()
	s2.CrashForTest()

	s3, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	h3, _ := s3.Heap("q")
	var seen []string
	s3.Scan(h3, func(_ RID, data []byte) bool {
		seen = append(seen, string(data))
		return true
	})
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("double crash recovery: %v", seen)
	}
}

func TestBatchDeleteUnloggedVsLogged(t *testing.T) {
	// The E3 claim: retention-based batch deletes produce far less log than
	// before-image deletes.
	run := func(unlogged bool) uint64 {
		opts := DefaultOptions()
		opts.SyncCommits = false
		opts.UnloggedDeletes = unlogged
		s := openTemp(t, opts)
		h, _ := s.CreateHeap("q")
		payload := bytes.Repeat([]byte("m"), 1000)
		var rids []RID
		tx := s.Begin()
		for i := 0; i < 200; i++ {
			rid, _ := tx.Insert(h, payload)
			rids = append(rids, rid)
		}
		tx.Commit()
		before := s.Stats().LogBytes
		if err := s.BatchDelete(h, rids); err != nil {
			t.Fatal(err)
		}
		return s.Stats().LogBytes - before
	}
	unlogged := run(true)
	logged := run(false)
	if unlogged*10 > logged {
		t.Fatalf("unlogged deletes should be >10x smaller: unlogged=%d logged=%d", unlogged, logged)
	}
}

func TestBatchDeleteSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, DefaultOptions())
	h, _ := s.CreateHeap("q")
	var rids []RID
	tx := s.Begin()
	for i := 0; i < 50; i++ {
		rid, _ := tx.Insert(h, []byte(fmt.Sprintf("m%d", i)))
		rids = append(rids, rid)
	}
	tx.Commit()
	if err := s.BatchDelete(h, rids[:25]); err != nil {
		t.Fatal(err)
	}
	s.CrashForTest()

	s2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2, _ := s2.Heap("q")
	n := 0
	s2.Scan(h2, func(RID, []byte) bool { n++; return true })
	if n != 25 {
		t.Fatalf("after batch delete + crash: %d records, want 25", n)
	}
}

// TestTxnBatchDeleteAcrossHeaps: one transaction batch-deletes from two
// heaps, overflow records among them, in either delete mode. It is one
// commit with one log flush; the records are gone, across a crash too, and
// once it committed the emptied pages and the overflow chains are free.
func TestTxnBatchDeleteAcrossHeaps(t *testing.T) {
	for _, unlogged := range []bool{true, false} {
		t.Run(fmt.Sprintf("unlogged=%v", unlogged), func(t *testing.T) {
			dir := t.TempDir()
			opts := DefaultOptions()
			opts.UnloggedDeletes = unlogged
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			heaps := []HeapID{}
			rids := map[HeapID][]RID{}
			for _, name := range []string{"a", "b"} {
				h, _ := s.CreateHeap(name)
				heaps = append(heaps, h)
				tx := s.Begin()
				for i := 0; i < 200; i++ {
					payload := bytes.Repeat([]byte("x"), 2000)
					if i%50 == 0 {
						payload = bytes.Repeat([]byte("o"), 3*PageSize) // overflow
					}
					rid, err := tx.Insert(h, payload)
					if err != nil {
						t.Fatal(err)
					}
					rids[h] = append(rids[h], rid)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			before := s.Stats()
			tx := s.Begin()
			for _, h := range heaps {
				if err := tx.BatchDelete(h, rids[h][:190]); err != nil {
					t.Fatal(err)
				}
			}
			if free := s.Stats().FreePages; free != before.FreePages {
				t.Fatalf("%d pages freed before the commit", free-before.FreePages)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			after := s.Stats()
			if after.Commits-before.Commits != 1 || after.WALFsyncs-before.WALFsyncs != 1 {
				t.Fatalf("%d commits, %d log flushes, want 1 and 1", after.Commits-before.Commits, after.WALFsyncs-before.WALFsyncs)
			}
			// ~47 emptied pages per heap, and 4 overflow chains of 3+ pages each.
			if freed := after.FreePages - before.FreePages; freed < 2*40+4*3 {
				t.Fatalf("%d pages freed after the commit", freed)
			}
			s.CrashForTest()
			s2, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			for _, name := range []string{"a", "b"} {
				h, _ := s2.Heap(name)
				n := 0
				s2.Scan(h, func(RID, []byte) bool { n++; return true })
				if n != 10 {
					t.Fatalf("heap %s after the commit and a crash: %d records, want 10", name, n)
				}
			}
		})
	}
}

func TestPageReclamation(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h, _ := s.CreateHeap("q")
	payload := bytes.Repeat([]byte("x"), 2000)
	var rids []RID
	tx := s.Begin()
	for i := 0; i < 400; i++ { // ~100 pages
		rid, _ := tx.Insert(h, payload)
		rids = append(rids, rid)
	}
	tx.Commit()
	grown := s.Stats().PageCount
	if err := s.BatchDelete(h, rids); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FreePages < int(grown)/2 {
		t.Fatalf("expected most pages reclaimed: free=%d of %d", st.FreePages, grown)
	}
	// Freed pages are reused by new inserts.
	tx = s.Begin()
	for i := 0; i < 400; i++ {
		tx.Insert(h, payload)
	}
	tx.Commit()
	if after := s.Stats().PageCount; after > grown+8 {
		t.Fatalf("free pages not reused: before=%d after=%d", grown, after)
	}
}

func TestCheckpointBoundsLiveLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	tx.Insert(h, bytes.Repeat([]byte("y"), 500))
	tx.Commit()
	before := s.LiveLogBytes()
	if before == 0 {
		t.Fatal("log should have live content")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A single fuzzy checkpoint leaves its bracket records plus the
	// full-page images of the pages it wrote back live (they sit after the
	// redo point for torn-page protection), so the window is bounded by the
	// dirty-page count — not by workload history. A second checkpoint with
	// no intervening writes has nothing dirty and collapses the live window
	// to its own brackets.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live := s.LiveLogBytes()
	if live > 256 {
		t.Fatalf("fuzzy checkpoint should bound the live log: before=%d after=%d", before, live)
	}
	// The quiescent checkpoint of Close has nothing in flight and leaves
	// nothing live at all: a clean reopen replays zero records.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if live := s.LiveLogBytes(); live != 0 {
		t.Fatalf("quiescent checkpoint should leave zero live bytes, got %d", live)
	}
	// Data survives checkpoint + reopen.
	n := 0
	s.Scan(h, func(RID, []byte) bool { n++; return true })
	if n != 1 {
		t.Fatal("data lost at checkpoint")
	}
}

func TestBufferPoolEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.BufferPages = 16
	opts.SyncCommits = false
	s := openTemp(t, opts)
	h, _ := s.CreateHeap("q")
	payload := bytes.Repeat([]byte("z"), 4000)
	tx := s.Begin()
	var rids []RID
	for i := 0; i < 100; i++ { // ~50 pages >> 16 frames
		rid, err := tx.Insert(h, payload)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	tx.Commit()
	if s.Stats().Evictions == 0 {
		t.Fatal("expected evictions with a small pool")
	}
	// All records readable back through the small pool.
	for _, rid := range rids {
		if _, err := s.Read(rid); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMultipleHeapsIsolated(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	h1, _ := s.CreateHeap("a")
	h2, _ := s.CreateHeap("b")
	tx := s.Begin()
	tx.Insert(h1, []byte("in-a"))
	tx.Insert(h2, []byte("in-b"))
	tx.Commit()
	var got []string
	s.Scan(h1, func(_ RID, d []byte) bool { got = append(got, string(d)); return true })
	if len(got) != 1 || got[0] != "in-a" {
		t.Fatalf("heap a: %v", got)
	}
	// Recreating an existing heap returns the same ID.
	h1b, _ := s.CreateHeap("a")
	if h1b != h1 {
		t.Fatal("CreateHeap should be idempotent")
	}
}

// TestOpenShortHeaderFails checks that a truncated store header fails Open
// when the WAL holds records, instead of silently resetting the LSN base to
// zero — which would let stale page LSNs mask the redo of newer log
// records after a checkpoint. Without WAL records nothing was ever
// committed, so the same residue is reformatted as a fresh store.
func TestOpenShortHeaderFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "data.db"), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ := frameWAL([]*logRecord{{typ: recBegin, txn: 1}})
	seg := append(segHeaderBytes(1, 0), recs...)
	if err := os.WriteFile(filepath.Join(dir, walSegName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DefaultOptions()); err == nil {
		t.Fatal("Open succeeded on a store with a truncated header and non-empty WAL")
	} else if !strings.Contains(err.Error(), "header") {
		t.Fatalf("want header error, got: %v", err)
	}

	// Same truncated data file, empty WAL: a torn initial format, safe to
	// reformat.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "data.db"), []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir2, DefaultOptions())
	if err != nil {
		t.Fatalf("Open should reformat a torn format with empty WAL: %v", err)
	}
	s.Close()
}

// TestOpenHeaderWithoutValidSlotFails: the header's two checkpoint slots are
// the only record of where recovery starts. A store whose slots both fail
// their CRC must not open from a guess — there is no pre-slot field to fall
// back on any more.
func TestOpenHeaderWithoutValidSlotFails(t *testing.T) {
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
	if _, err := tx.Insert(h, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "data.db")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{hdrSlotA, hdrSlotB} {
		data[off+hdrSlotSize-1] ^= 0xff // the CRC's last byte
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, DefaultOptions()); err == nil {
		s.Close()
		t.Fatal("Open succeeded on a header with no valid checkpoint slot")
	} else if !strings.Contains(err.Error(), "header") {
		t.Fatalf("want header error, got: %v", err)
	}
}

// TestOpenEmptyDataFile checks that a zero-length data file — the residue
// of a crash between file creation and the first header write — is treated
// as a fresh store and reformatted.
func TestOpenEmptyDataFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "data.db"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatalf("Open of empty data file: %v", err)
	}
	defer s.Close()
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	if _, err := tx.Insert(h, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDeleteIdempotent re-runs a batch delete over already-deleted
// records in both logging modes: retention re-runs the same batch after a
// crash and must not fail (nor abandon a half-applied internal
// transaction) on rids that are already gone.
func TestBatchDeleteIdempotent(t *testing.T) {
	for _, unlogged := range []bool{true, false} {
		opts := DefaultOptions()
		opts.UnloggedDeletes = unlogged
		s := openTemp(t, opts)
		h, _ := s.CreateHeap("q")
		tx := s.Begin()
		var rids []RID
		for i := 0; i < 10; i++ {
			rid, err := tx.Insert(h, []byte(fmt.Sprintf("r%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.BatchDelete(h, rids[:7]); err != nil {
			t.Fatalf("unlogged=%v first delete: %v", unlogged, err)
		}
		// Overlapping re-run: 5 already gone, 3 still live.
		if err := s.BatchDelete(h, rids[2:]); err != nil {
			t.Fatalf("unlogged=%v re-run over deleted rids: %v", unlogged, err)
		}
		count := 0
		if err := s.Scan(h, func(RID, []byte) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != 0 {
			t.Fatalf("unlogged=%v: %d records survived", unlogged, count)
		}
	}
}

// TestRecoveryBatchDeleteSlotReuse pins the per-page LSN invariant for
// unlogged batch deletes: delete a record, let a later committed insert
// reuse its dead slot, force the page to disk (carrying the insert's LSN),
// crash, recover. The batch-delete redo must be masked by the page LSN —
// an out-of-band batch LSN would replay the delete over the newer record
// and lose it.
func TestRecoveryBatchDeleteSlotReuse(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.BufferPages = 8 // tiny pool: filler traffic evicts the reused page
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.CreateHeap("q")
	tx := s.Begin()
	ridA, err := tx.Insert(h, []byte("old-record"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.BatchDelete(h, []RID{ridA}); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	ridB, err := tx.Insert(h, []byte("new-record"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if ridB != ridA {
		t.Fatalf("test premise: insert should reuse the dead slot, got %s vs %s", ridB, ridA)
	}
	// Filler traffic forces eviction of the reused page, writing it back
	// with the insert's LSN.
	filler := bytes.Repeat([]byte("f"), 3000)
	tx = s.Begin()
	for i := 0; i < 100; i++ {
		if _, err := tx.Insert(h, filler); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Scan(h, func(RID, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	s.CrashForTest()

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Read(ridB)
	if err != nil {
		t.Fatalf("newer record lost in recovery: %v", err)
	}
	if string(got) != "new-record" {
		t.Fatalf("newer record corrupted in recovery: %q", got)
	}
}

// TestRecoveryLargerThanBufferPool recovers a store whose redo working set
// far exceeds the buffer pool, forcing dirty-page eviction (and its WAL
// flush) in the middle of the recovery log scan. wal.scan must not hold
// its mutex across the replay callback, or this self-deadlocks.
func TestRecoveryLargerThanBufferPool(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.BufferPages = 8
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.CreateHeap("q")
	payload := bytes.Repeat([]byte("r"), 3000)
	tx := s.Begin()
	const n = 300 // ~150 pages >> pool
	for i := 0; i < n; i++ {
		if _, err := tx.Insert(h, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s.CrashForTest()

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2, _ := s2.Heap("q")
	count := 0
	if err := s2.Scan(h2, func(RID, []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("recovered %d records, want %d", count, n)
	}
}

// TestRecoveryLoserOverflowChunkUndo crashes with an uncommitted overflow
// insert whose payload bytes are all 0x01 — so every logged chunk starts
// with what looks like the inline overflow-record kind byte. Recovery's
// loser undo must not parse chunk payloads as chain headers: doing so
// panicked on short chunks (index out of range on a 3-byte tail chunk)
// or free-listed garbage page chains.
func TestRecoveryLoserOverflowChunkUndo(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.CreateHeap("q")
	// Committed record that must survive the loser's undo untouched.
	tx := s.Begin()
	keep, err := tx.Insert(h, []byte("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Loser: spilled insert with a 3-byte tail chunk, all bytes 0x01.
	payload := bytes.Repeat([]byte{1}, overflowPrefix+ovChunkMax+3)
	loser := s.Begin()
	if _, err := loser.Insert(h, payload); err != nil {
		t.Fatal(err)
	}
	// A later commit's group flush makes the loser's buffered records
	// durable, so recovery will see (and undo) them.
	tx2 := s.Begin()
	if _, err := tx2.Insert(h, []byte("flusher")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	s.CrashForTest()

	s2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatalf("recovery failed on loser overflow undo: %v", err)
	}
	defer s2.Close()
	got, err := s2.Read(keep)
	if err != nil || string(got) != "survivor" {
		t.Fatalf("committed record damaged by loser undo: %q, %v", got, err)
	}
	h2, _ := s2.Heap("q")
	count := 0
	if err := s2.Scan(h2, func(RID, []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 2 { // survivor + flusher; the loser's insert undone
		t.Fatalf("heap has %d records after recovery, want 2", count)
	}
}

// TestPrecommitDurableOnlyAfterWait: pre-committed transactions are lost by a
// crash until the log has been waited for, and one WaitDurable(LogEnd())
// covers all of them, whichever LSNs they got.
func TestPrecommitDurableOnlyAfterWait(t *testing.T) {
	for _, wait := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		h, _ := s.CreateHeap("q")
		var last uint64
		for i := 0; i < 10; i++ {
			tx := s.Begin()
			tx.Insert(h, []byte(fmt.Sprintf("msg-%d", i)))
			lsn, err := tx.Precommit()
			if err != nil || lsn <= last {
				t.Fatalf("pre-commit %d: lsn %d after %d, err %v", i, lsn, last, err)
			}
			last = lsn
		}
		if end := s.LogEnd(); end < last {
			t.Fatalf("LogEnd %d below the last commit LSN %d", end, last)
		}
		if wait {
			if err := s.WaitDurable(s.LogEnd()); err != nil {
				t.Fatal(err)
			}
		}
		s.CrashForTest()

		s2, err := Open(dir, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		h2, _ := s2.Heap("q")
		n := 0
		s2.Scan(h2, func(RID, []byte) bool { n++; return true })
		s2.Close()
		if want := map[bool]int{false: 0, true: 10}[wait]; n != want {
			t.Fatalf("waited=%v: %d records survive the crash, want %d", wait, n, want)
		}
	}
}
