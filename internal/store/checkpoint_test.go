package store

import (
	"bytes"
	"testing"

	"demaq/internal/faultinject"
)

// TestCleanShutdownZeroReplay asserts the clean-restart contract: Close runs
// a quiescent checkpoint whose published redo offset equals the log end, so
// the next Open replays nothing at all.
func TestCleanShutdownZeroReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("p"), 600)
	for i := 0; i < 25; i++ {
		tx := s.Begin()
		if _, err := tx.Insert(h, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i == 12 {
			// A mid-run fuzzy checkpoint must not disturb the contract.
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Stats().RecoveryRecordsReplayed; n != 0 {
		t.Fatalf("clean shutdown must replay zero records on reopen, replayed %d", n)
	}
	h2, err := s2.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	s2.Scan(h2, func(RID, []byte) bool { count++; return true })
	if count != 25 {
		t.Fatalf("lost data across clean restart: %d of 25 records", count)
	}
}

// runBudgetedWorkload commits `rounds` rounds of insert/delete traffic
// against a FaultFS-backed store, checkpointing whenever the live WAL
// outgrows the budget (standing in for the engine's scheduler), then
// crashes. It returns the FaultFS holding the durable image and the number
// of records the subsequent reopen replays.
func runBudgetedWorkload(t *testing.T, rounds int) uint64 {
	t.Helper()
	const budget = 16 << 10
	fs := faultinject.NewFaultFS(7)
	s, err := Open("br", Options{VFS: fs, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("b"), 256)
	var rids []RID
	for r := 0; r < rounds; r++ {
		tx := s.Begin()
		for i := 0; i < 4; i++ {
			rid, err := tx.Insert(h, payload)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if len(rids) > 8 {
			if err := tx.Delete(h, rids[0]); err != nil {
				t.Fatal(err)
			}
			rids = rids[1:]
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if s.LiveLogBytes() > budget {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A fixed-size tail of unchecked-pointed work, identical for every
	// workload length, so the replay cost at crash is comparable.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		tx := s.Begin()
		if _, err := tx.Insert(h, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.CrashForTest()

	s2, err := Open("br", Options{VFS: fs, SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.VerifyPageLSNs(); err != nil {
		t.Fatal(err)
	}
	n := s2.Stats().RecoveryRecordsReplayed
	if n == 0 {
		t.Fatal("crash with a post-checkpoint tail should replay at least the tail")
	}
	return n
}

// TestRecoveryBoundedByBudget is the recovery-bounds regression test: with
// checkpoints driven by a fixed WAL budget, replay after a crash is a
// function of the budget (work since the last complete checkpoint), not of
// how long the store has been running. A 10x longer workload must not
// replay meaningfully more than the 1x one.
func TestRecoveryBoundedByBudget(t *testing.T) {
	short := runBudgetedWorkload(t, 20)
	long := runBudgetedWorkload(t, 200)
	if long > short*2+32 {
		t.Fatalf("replay grew with workload length: 1x replays %d records, 10x replays %d", short, long)
	}
}

// TestCommitThrottleUnderBudget checks graceful degradation: with a hard
// WAL budget configured and no checkpointer running, commits past the soft
// budget are delayed (and counted) but still succeed.
func TestCommitThrottleUnderBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.SyncCommits = false
	opts.WALHardBudget = 32 << 10 // soft defaults to half of this
	s := openTemp(t, opts)
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("t"), 1024)
	for i := 0; i < 64; i++ {
		tx := s.Begin()
		if _, err := tx.Insert(h, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d failed under throttle: %v", i, err)
		}
	}
	st := s.Stats()
	if st.WALThrottles == 0 {
		t.Fatalf("expected throttled commits past the soft budget (live=%d)", st.WALLiveBytes)
	}
	// The throttle slows, never rejects: all the work landed.
	count := 0
	s.Scan(h, func(RID, []byte) bool { count++; return true })
	if count != 64 {
		t.Fatalf("throttle lost work: %d of 64 records", count)
	}
}

// TestWALSegmentRollAndRecycle drives enough traffic through a tiny segment
// size to force rolls, then checkpoints and verifies old segments are
// recycled (deleted) once the head passes them.
func TestWALSegmentRollAndRecycle(t *testing.T) {
	opts := DefaultOptions()
	opts.SyncCommits = false
	opts.WALSegmentSize = 8 << 10
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.CreateHeap("q")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("s"), 512)
	for i := 0; i < 120; i++ {
		tx := s.Begin()
		if _, err := tx.Insert(h, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WALSegRolls == 0 {
		t.Fatalf("expected segment rolls with %d bytes logged in 8KiB segments", st.LogBytes)
	}
	// Two checkpoints: the first bounds the live window, the second lets the
	// head pass the first's full-page images so old segments can go.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.WALSegments > 2 {
		t.Fatalf("checkpoint should recycle dead segments, %d still on disk", after.WALSegments)
	}
	// Reopen from the segmented, recycled log.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2, _ := s2.CreateHeap("q")
	count := 0
	s2.Scan(h2, func(RID, []byte) bool { count++; return true })
	if count != 120 {
		t.Fatalf("segment recycling lost data: %d of 120 records", count)
	}
}

// TestWALSoftBudgetResolved pins the one rule for the soft budget the
// commit throttle and the engine's checkpoint trigger share: half the hard
// budget whenever the soft one is unset or not below it.
func TestWALSoftBudgetResolved(t *testing.T) {
	for _, c := range []struct{ soft, hard, want int64 }{
		{0, 0, 0},
		{4 << 10, 0, 4 << 10},
		{0, 8 << 10, 4 << 10},
		{2 << 10, 8 << 10, 2 << 10},
		{8 << 10, 8 << 10, 4 << 10},
		{16 << 10, 8 << 10, 4 << 10},
	} {
		s, err := Open("sb", Options{VFS: faultinject.NewFaultFS(1), WALSoftBudget: c.soft, WALHardBudget: c.hard})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.WALSoftBudget(); got != c.want {
			t.Errorf("soft %d, hard %d: soft budget in effect %d, want %d", c.soft, c.hard, got, c.want)
		}
		s.Close()
	}
}
