package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"demaq/internal/faultinject"
	"demaq/internal/vfs"
)

// recoveryCrashOptions gives the recovery sweep a 16-frame pool, so redo
// replays about four times the pool. Small log segments keep FaultFS's
// syncs, which copy a whole file, cheap.
func recoveryCrashOptions(fs *faultinject.FaultFS) Options {
	return Options{VFS: fs, BufferPages: 16, SyncCommits: true, WALSegmentSize: 128 << 10}
}

// recoveryCrashWorkload commits 64 one-page records in one transaction and
// then, in three more transactions, sets byte 0 of every record. The
// filesystem then crashes, and reboots. It returns every record's
// committed bytes.
func recoveryCrashWorkload(t *testing.T, fs *faultinject.FaultFS) map[RID][]byte {
	t.Helper()
	s, err := Open("rec", recoveryCrashOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.CreateHeap("h")
	if err != nil {
		t.Fatal(err)
	}
	committed := map[RID][]byte{}
	var rids []RID
	tx := s.Begin()
	for i := 0; i < 64; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, inlineMax) // one record per page
		rid, err := tx.Insert(h, rec)
		if err != nil {
			t.Fatal(err)
		}
		committed[rid] = rec
		rids = append(rids, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		tx := s.Begin()
		for _, rid := range rids {
			if err := tx.SetByte(rid, 0, byte(100+round)); err != nil {
				t.Fatal(err)
			}
			committed[rid][0] = byte(100 + round)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	fs.CrashNow()
	s.CrashForTest()
	fs.ClearFault()
	return committed
}

// replayedPages returns the distinct pages the records recovery will replay
// name: those from the redo offset the store header publishes on.
func replayedPages(t *testing.T, fs *faultinject.FaultFS) map[PageID]bool {
	t.Helper()
	f, err := fs.OpenFile(filepath.Join("rec", dataFileName))
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, headerBytes)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		t.Fatal(err)
	}
	redo, _ := parseHeaderSlots(hdr)
	w, err := openWALDir(fs, "rec", redo, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	pages := map[PageID]bool{}
	if err := w.scanFrom(w.headOffset(), func(r *logRecord) error {
		switch r.typ {
		case recInsert, recDelete, recSetBytes, recFormatPage, recChain, recSetFlags, recFullPage:
			pages[r.page] = true
		case recCLR:
			pages[r.comp.page] = true
		case recBatchDelete:
			for _, rid := range r.rids {
				pages[rid.Page] = true
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return pages
}

// TestRecoveryCrashSweep crashes the recovery that follows a crash. The
// recovering Open replays about four times its 16-frame pool; the sweep
// crashes it at each of its disk operations, tearing the write it crashes
// in, then reboots and opens the store again. Every committed record must
// read back with its committed bytes. A recovery that wrote back a page
// before redo ended would log a full-page image of a half-redone page,
// which the next recovery restores over records it already replayed.
//
// The probe run also pins recovery's memory: the forward pass keeps every
// page it touches buffered, and no more.
func TestRecoveryCrashSweep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			fs := faultinject.NewFaultFS(seed)
			recoveryCrashWorkload(t, fs)
			distinct := len(replayedPages(t, fs))

			fs = faultinject.NewFaultFS(seed)
			committed := recoveryCrashWorkload(t, fs)
			crashed := fs.Clone(seed)
			opened := fs.Ops()
			s, err := Open("rec", recoveryCrashOptions(fs))
			if err != nil {
				t.Fatal(err)
			}
			last := fs.Ops()
			trace := fs.Trace()
			peak := s.recFrames
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			t.Logf("recovery replays %d distinct pages, buffers %d frames, makes %d disk operations", distinct, peak, last-opened)
			if peak > distinct || peak <= 16 {
				t.Errorf("recovery buffered %d frames; the replayed range names %d distinct pages and the pool has 16", peak, distinct)
			}
			if last-opened < 50 {
				t.Fatalf("the recovering open made only %d disk operations", last-opened)
			}

			stride := 1
			if testing.Short() {
				stride = 7
			}
			for site := opened + 1; site <= last; site += stride {
				t.Run(fmt.Sprintf("crash-at-%03d", site), func(t *testing.T) {
					crashInRecovery(t, crashed.Clone(int64(site)), committed, site, trace)
				})
			}
		})
	}
}

// crashInRecovery crashes the recovering Open of the workload's files at
// site (tearing it if it is a write), reboots, reopens and checks every
// committed record.
func crashInRecovery(t *testing.T, fs *faultinject.FaultFS, committed map[RID][]byte, site int, trace []faultinject.FaultPoint) {
	fs.TearAt(site)
	// A crash in the removal of a dead log segment, which ignores its
	// error, can let the open succeed on a crashed filesystem.
	s, err := Open("rec", recoveryCrashOptions(fs))
	if err == nil {
		s.CrashForTest()
	}
	if !fs.Crashed() || err != nil && !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("recovering open ended with %v, want a crash", err)
	}
	if got, want := fs.Trace()[site-1], trace[site-1]; got != want {
		t.Fatalf("crashed in %v, the probe ran %v there", got, want)
	}
	fs.ClearFault()
	s, err = Open("rec", recoveryCrashOptions(fs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	for rid, want := range committed {
		got, err := s.Read(rid)
		if err != nil {
			t.Fatalf("committed record %s: %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("committed record %s reads back byte 0 = %d, want %d", rid, got[0], want[0])
		}
	}
	if err := s.VerifyPageLSNs(); err != nil {
		t.Fatal(err)
	}
}
