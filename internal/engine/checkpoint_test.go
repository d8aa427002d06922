package engine

import (
	"errors"
	"testing"
	"time"

	"demaq/internal/gateway"
	"demaq/internal/msgstore"
)

// budgetedOptions returns message-store options with a WAL budget and small
// segments, suitable for exercising the checkpoint scheduler in tests.
func budgetedOptions(soft, hard int64) msgstore.Options {
	o := msgstore.DefaultOptions()
	o.Store.SyncCommits = false
	o.Store.WALSegmentSize = 32 << 10
	o.Store.WALSoftBudget = soft
	o.Store.WALHardBudget = hard
	return o
}

// TestShutdownZeroReplay is the clean-shutdown contract end to end: a
// graceful Shutdown ends with a final checkpoint, so the next engine on the
// same directory replays zero WAL records during recovery.
func TestShutdownZeroReplay(t *testing.T) {
	dir := t.TempDir()
	e := newBasicEngine(t, Config{Dir: dir, Workers: 2})
	e.Start()
	for i := 0; i < 40; i++ {
		if _, err := e.EnqueueXML("in", "<m/>", nil); err != nil {
			t.Fatal(err)
		}
	}
	drained, err := e.Shutdown(10 * time.Second)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !drained {
		t.Fatal("shutdown did not drain")
	}

	e2 := newBasicEngine(t, Config{Dir: dir, Workers: 1})
	defer e2.Stop()
	st := e2.Stats()
	if st.RecoveryReplayed != 0 {
		t.Fatalf("clean shutdown must leave zero records to replay, reopened engine replayed %d", st.RecoveryReplayed)
	}
}

// TestWALHardBudgetSheds: with the live WAL at the hard budget and no
// checkpointer running (engine not started), admission refuses new ingest
// with the retryable overload verdict — the WAL cannot grow without bound.
func TestWALHardBudgetSheds(t *testing.T) {
	e := newBasicEngine(t, Config{Workers: 1, Store: budgetedOptions(4<<10, 8<<10)})
	defer e.Stop()
	var err error
	for i := 0; i < 1000; i++ {
		if _, err = e.EnqueueXML("in", "<m>payload-payload-payload-payload</m>", nil); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, gateway.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded once the WAL hits the hard budget, got: %v", err)
	}
	st := e.Stats()
	if st.WALShed == 0 {
		t.Fatal("WALShed should count the refused enqueue")
	}
	if st.WALLiveBytes < 8<<10 {
		t.Fatalf("shed fired below the hard budget: live=%d", st.WALLiveBytes)
	}
	// The store also throttled commits between the soft and hard budgets.
	if st.WALThrottles == 0 {
		t.Fatal("commits between the budgets should have been throttled")
	}
}

// TestCheckpointSchedulerBoundsWAL: a started engine with a WAL budget runs
// fuzzy checkpoints in the background, keeping the live WAL near the soft
// budget under sustained traffic — ingest is never shed because the head
// keeps advancing.
func TestCheckpointSchedulerBoundsWAL(t *testing.T) {
	e := newBasicEngine(t, Config{
		Workers: 2,
		Store:   budgetedOptions(16<<10, 1<<20),
	})
	e.Start()
	defer e.Stop()
	for i := 0; i < 400; i++ {
		if _, err := e.EnqueueXML("in", "<m>sustained-load-payload</m>", nil); err != nil {
			t.Fatalf("enqueue %d: %v (scheduler should keep the WAL under the hard budget)", i, err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return e.Stats().Checkpoints > 0 })
	waitFor(t, 10*time.Second, func() bool { return e.sched.Idle() })
	// Once idle, the next scheduler pass brings the live WAL back under the
	// soft budget (the last checkpoint's bracket records and page images
	// remain live by design).
	waitFor(t, 10*time.Second, func() bool {
		return e.Stats().WALLiveBytes < 16<<10
	})
	st := e.Stats()
	if st.WALShed != 0 {
		t.Fatalf("scheduler let the WAL reach the hard budget: %d sheds", st.WALShed)
	}
	if st.LastCheckpoint <= 0 {
		t.Fatal("LastCheckpoint duration should be recorded")
	}
}

// TestCheckpointSoftBudgetAtHard: a soft budget at the hard budget is
// resolved the way the store's commit throttle resolves it, to half the hard
// budget, so the scheduler checkpoints once the live WAL passes hard/2 —
// before the node sheds ingest at the hard budget.
func TestCheckpointSoftBudgetAtHard(t *testing.T) {
	const hard = 256 << 10
	e := newBasicEngine(t, Config{Workers: 1, Store: budgetedOptions(hard, hard)})
	defer e.Stop()
	before := e.Stats().Checkpoints
	e.Start()
	for i := 0; e.Stats().WALLiveBytes <= hard/2; i++ {
		if _, err := e.EnqueueXML("in", "<m>soft-budget-at-hard-payload</m>", nil); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return e.Stats().Checkpoints > before })
}
