package msgstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/store"
	"demaq/internal/vfs"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// The crash torture harness: a deterministic mixed workload (enqueue,
// multi-message transactions, processed marking, retention removal,
// checkpoints, reads) runs against a FaultFS. A first pass enumerates
// every write/sync/remove the workload performs; the sweep then reruns
// it once per operation, crashing exactly there, reopening the store, and
// checking the recovered state against a model of what had committed:
//
//   - committed messages survive with queue, properties, payload and
//     processed flag intact (no lost commits);
//   - the one operation in flight at the crash is all-or-nothing
//     (multi-enqueue transactions appear entirely or not at all);
//   - removed messages stay removed; nothing else disappears;
//   - no ghost messages appear;
//   - VerifyIntegrity holds: heaps decode, the status side-heap joins,
//     the property index matches a recomputation, page LSNs are within
//     the log;
//   - recovery is bounded: with fuzzy checkpoints running every 11th
//     iteration, replay after any crash covers at most the records since
//     the last complete checkpoint — never the whole workload history.

const tortureDir = "torture" // never touches the real FS: FaultFS only

func tortureOptions(fs *faultinject.FaultFS) Options {
	return Options{
		Store: store.Options{
			VFS:             fs,
			BufferPages:     16, // force evictions → write-backs mid-run
			SyncCommits:     true,
			UnloggedDeletes: true,
			// Tiny segments so the workload rolls the WAL and the fuzzy
			// checkpoints recycle dead segments — both are crash sites.
			WALSegmentSize: 16 << 10,
		},
		CacheDocs: 8,
	}
}

// modelMsg is the oracle's view of one committed message.
type modelMsg struct {
	id        MsgID
	queue     string
	props     map[string]string
	text      string
	processed bool
	removed   bool
}

type model struct {
	order []MsgID
	msgs  map[MsgID]*modelMsg

	// Effects of the operation in flight when the crash hit; each may or
	// may not have reached the disk.
	maybeEnq       []*modelMsg // one transaction: all-or-nothing
	maybeProcessed []MsgID
	maybeRemoved   []MsgID
}

func newModel() *model { return &model{msgs: map[MsgID]*modelMsg{}} }

func (m *model) firstWhere(pred func(*modelMsg) bool) *modelMsg {
	for _, id := range m.order {
		if mm := m.msgs[id]; pred(mm) {
			return mm
		}
	}
	return nil
}

var tortureQueues = []string{"alpha", "beta", "gamma"}

func tortureDoc(i int) (xml, text string) {
	pad := ""
	if i%9 == 0 {
		// Spill into an overflow chain: > 8K payload.
		pad = strings.Repeat("x", 9000)
	}
	text = fmt.Sprintf("%d%s", i, pad)
	return fmt.Sprintf("<m><i>%d</i><pad>%s</pad></m>", i, pad), text
}

func tortureProps(i int) (map[string]xdm.Value, map[string]string) {
	v := map[string]xdm.Value{
		"kind": xdm.NewString(fmt.Sprintf("k%d", i%4)),
		"seq":  xdm.NewString(fmt.Sprint(i)),
	}
	s := map[string]string{"kind": fmt.Sprintf("k%d", i%4), "seq": fmt.Sprint(i)}
	return v, s
}

// runTortureWorkload drives iters iterations against ms, recording
// committed effects in mdl. On the first error it records the in-flight
// operation's effects as "maybe" and returns the error.
func runTortureWorkload(ms *Store, mdl *model, iters int) error {
	for _, q := range tortureQueues {
		if _, err := ms.CreateQueue(q, Persistent, 0); err != nil {
			return err
		}
	}
	for i := 1; i <= iters; i++ {
		q := tortureQueues[i%len(tortureQueues)]
		xml, text := tortureDoc(i)
		props, sprops := tortureProps(i)

		tx := ms.Begin()
		var pend []*modelMsg
		if err := tx.Enqueue(q, xmldom.MustParse(xml), props, time.Now()); err != nil {
			return err
		}
		pend = append(pend, &modelMsg{queue: q, props: sprops, text: text})
		if i%6 == 0 {
			// Multi-message transaction: atomicity across both enqueues.
			xml2, text2 := tortureDoc(i + 1000)
			props2, sprops2 := tortureProps(i + 1000)
			q2 := tortureQueues[(i+1)%len(tortureQueues)]
			if err := tx.Enqueue(q2, xmldom.MustParse(xml2), props2, time.Now()); err != nil {
				return err
			}
			pend = append(pend, &modelMsg{queue: q2, props: sprops2, text: text2})
		}
		// The run is single-threaded: the commit assigns the next IDs in
		// staging order, which the model needs even if the commit crashes.
		next := MsgID(ms.nextID.Load())
		for i, mm := range pend {
			mm.id = next + MsgID(i)
		}
		out, err := tx.Commit()
		if err != nil {
			mdl.maybeEnq = pend
			return err
		}
		for i, mm := range pend {
			if out[i].ID != mm.id {
				return fmt.Errorf("enqueue %d got ID %d, want %d", i, out[i].ID, mm.id)
			}
			mdl.order = append(mdl.order, mm.id)
			mdl.msgs[mm.id] = mm
		}

		if i%5 == 0 {
			if mm := mdl.firstWhere(func(m *modelMsg) bool { return !m.processed && !m.removed }); mm != nil {
				tx := ms.Begin()
				if err := tx.MarkProcessed(mm.id); err != nil {
					return err
				}
				if _, err := tx.Commit(); err != nil {
					mdl.maybeProcessed = []MsgID{mm.id}
					return err
				}
				mm.processed = true
			}
		}
		if i%7 == 0 {
			if mm := mdl.firstWhere(func(m *modelMsg) bool { return m.processed && !m.removed }); mm != nil {
				if err := removeNow(ms, mm.queue, []MsgID{mm.id}); err != nil {
					mdl.maybeRemoved = []MsgID{mm.id}
					return err
				}
				mm.removed = true
			}
		}
		if i%11 == 0 {
			if err := ms.PageStore().Checkpoint(); err != nil {
				return err // checkpoint changes no logical state: nothing "maybe"
			}
		}
		if i%13 == 0 {
			// Reads mixed in: they evict dirty pages through the tiny pool,
			// adding write-back crash points mid-read.
			for _, qn := range tortureQueues {
				unprocessedIDs(ms, qn)
			}
			ms.PropertyIDsRange("kind", "k1", 0, ^MsgID(0), nil)
			if mm := mdl.firstWhere(func(m *modelMsg) bool { return !m.removed }); mm != nil {
				if _, err := ms.Doc(mm.id); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkRecovered validates the reopened store against the model.
func checkRecovered(ms *Store, mdl *model) error {
	if err := ms.VerifyIntegrity(); err != nil {
		return err
	}
	maybeProcessed := map[MsgID]bool{}
	for _, id := range mdl.maybeProcessed {
		maybeProcessed[id] = true
	}
	maybeRemoved := map[MsgID]bool{}
	for _, id := range mdl.maybeRemoved {
		maybeRemoved[id] = true
	}

	for _, id := range mdl.order {
		mm := mdl.msgs[id]
		got, ok := ms.Get(id)
		if mm.removed {
			if ok {
				return fmt.Errorf("message %d: removed before the crash but still present", id)
			}
			continue
		}
		if !ok {
			if maybeRemoved[id] {
				continue // the in-flight removal reached the disk
			}
			return fmt.Errorf("message %d: committed but lost", id)
		}
		if err := checkMessage(ms, got, mm, maybeProcessed[id]); err != nil {
			return err
		}
	}

	// The in-flight transaction is all-or-nothing.
	if len(mdl.maybeEnq) > 0 {
		present := 0
		for _, mm := range mdl.maybeEnq {
			if got, ok := ms.Get(mm.id); ok {
				if err := checkMessage(ms, got, mm, false); err != nil {
					return fmt.Errorf("maybe-committed %w", err)
				}
				present++
			}
		}
		if present != 0 && present != len(mdl.maybeEnq) {
			return fmt.Errorf("torn transaction: %d of %d enqueues survived", present, len(mdl.maybeEnq))
		}
	}

	// No ghosts: everything in the store is accounted for.
	known := map[MsgID]bool{}
	for id := range mdl.msgs {
		known[id] = true
	}
	for _, mm := range mdl.maybeEnq {
		known[mm.id] = true
	}
	for _, qn := range tortureQueues {
		msgs, err := ms.Messages(qn)
		if err != nil {
			// A crash during queue creation may legitimately lose the queue —
			// but then no committed message can claim to live in it.
			for _, mm := range mdl.msgs {
				if mm.queue == qn && !mm.removed && !maybeRemoved[mm.id] {
					return fmt.Errorf("queue %s lost but holds committed message %d: %v", qn, mm.id, err)
				}
			}
			continue
		}
		for _, m := range msgs {
			if !known[m.ID] {
				return fmt.Errorf("queue %s: ghost message %d", qn, m.ID)
			}
		}
	}
	return nil
}

func checkMessage(ms *Store, got Message, mm *modelMsg, processedAmbiguous bool) error {
	if got.Queue != mm.queue {
		return fmt.Errorf("message %d: queue %q, want %q", mm.id, got.Queue, mm.queue)
	}
	if !processedAmbiguous && got.Processed != mm.processed {
		return fmt.Errorf("message %d: processed=%v, want %v", mm.id, got.Processed, mm.processed)
	}
	if len(got.Props) != len(mm.props) {
		return fmt.Errorf("message %d: %d props, want %d", mm.id, len(got.Props), len(mm.props))
	}
	for k, want := range mm.props {
		if v, ok := got.Props[k]; !ok || v.StringValue() != want {
			return fmt.Errorf("message %d: prop %q=%q, want %q", mm.id, k, v.StringValue(), want)
		}
	}
	doc, err := ms.Doc(mm.id)
	if err != nil {
		return fmt.Errorf("message %d: doc: %w", mm.id, err)
	}
	if doc.StringValue() != mm.text {
		return fmt.Errorf("message %d: payload text mismatch", mm.id)
	}
	return nil
}

const tortureIters = 40

// tortureReplayBound caps the records any single recovery may replay. The
// workload checkpoints every 11th iteration, and one iteration logs a few
// dozen records at most (two enqueues with properties plus status updates),
// so replay after any crash is bounded by ~11 iterations of log plus the
// last checkpoint's own bracket records and full-page images. The full
// 40-iteration history is several times this bound: a regression that stops
// advancing the log head trips it immediately.
const tortureReplayBound = 700

// TestTortureCrashSweep reruns the workload once per mutation operation,
// crashing exactly there, and verifies recovery invariants each time.
// Under -short a stride samples ~30 points; the full sweep covers all.
// Each site crashes the recovering open that follows it too, at an
// operation its name samples, before the reopen the checks run on. The
// fault-free probe must pass the checker too, and cross every kind of
// crash point.
func TestTortureCrashSweep(t *testing.T) {
	faultinject.Sweep(t, faultinject.Scenario[*tortureRun]{
		Short: 30, Exact: true, MinSites: 50,
		Setup: func(_ testing.TB, fs *faultinject.FaultFS, _ *faultinject.FaultNet) *tortureRun {
			return &tortureRun{fs: fs, mdl: newModel()}
		},
		Run: func(_ testing.TB, r *tortureRun) error {
			ms, err := Open(tortureDir, tortureOptions(r.fs))
			if err != nil {
				return err
			}
			err = runTortureWorkload(ms, r.mdl, tortureIters)
			if err == nil {
				// The tail crash points live in Close's final checkpoint.
				err = ms.Close()
			}
			if err != nil {
				ms.PageStore().CrashForTest() // release resources; the FaultFS keeps the disk state
			}
			// err may be nil even though the crash fired: segment-recycle
			// removes tolerate failure (a stale segment is re-deleted at the
			// next open), so a crash landing on one lets the run complete.
			return err
		},
		// Log appends (segment headers too), group-commit syncs (segment
		// seals and redo publishes too), segment recycling, header rewrites,
		// page write-backs and checkpoint syncs.
		Probe: func(t testing.TB, _ *tortureRun, window []faultinject.FaultPoint) {
			kinds := map[string]int{}
			for _, p := range window {
				kinds[p.Op+"-"+p.Class]++
			}
			for _, want := range []string{"write-wal", "sync-wal", "remove-wal", "write-header", "write-data", "sync-data"} {
				if kinds[want] == 0 {
					t.Errorf("no crash points of kind %s (have %v)", want, kinds)
				}
			}
			t.Logf("crash points: %d total, %v", len(window), kinds)
		},
		Reboot: func(_ testing.TB, fs *faultinject.FaultFS) error {
			ms, err := Open(tortureDir, tortureOptions(fs))
			if err == nil {
				ms.PageStore().CrashForTest()
			}
			return err
		},
		Check: func(t testing.TB, r *tortureRun) {
			ms2, err := Open(tortureDir, tortureOptions(r.fs))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer ms2.Close()
			if err := checkRecovered(ms2, r.mdl); err != nil {
				t.Fatalf("invariant violation: %v", err)
			}
			// Bounded recovery: replay covers at most the records since the
			// last complete checkpoint (the workload checkpoints every 11th
			// iteration), never the whole history back to the log start.
			if replayed := ms2.PageStore().Stats().RecoveryRecordsReplayed; replayed > tortureReplayBound {
				t.Fatalf("recovery replayed %d records, bound %d — checkpoint head advance is not holding", replayed, tortureReplayBound)
			}

			// Recovery is idempotent: a second crashless reopen agrees.
			if err := ms2.Close(); err != nil {
				t.Fatalf("close after recovery: %v", err)
			}
			ms3, err := Open(tortureDir, tortureOptions(r.fs))
			if err != nil {
				t.Fatalf("second reopen: %v", err)
			}
			defer ms3.Close()
			if err := checkRecovered(ms3, r.mdl); err != nil {
				t.Fatalf("post-recovery reopen violation: %v", err)
			}
		},
	})
}

// tortureRun is the sweep's state: the disk and the model of what the
// workload committed on it.
type tortureRun struct {
	fs  *faultinject.FaultFS
	mdl *model
}

// TestTortureTransientAbsorbed injects a transient I/O error on every 13th
// operation; the bounded retry in the VFS layer must absorb all of them —
// the workload and its checker behave exactly as with no faults.
func TestTortureTransientAbsorbed(t *testing.T) {
	fs := faultinject.NewFaultFS(7)
	fs.TransientEvery(13)
	ms, err := Open(tortureDir, tortureOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	mdl := newModel()
	if err := runTortureWorkload(ms, mdl, tortureIters); err != nil {
		t.Fatalf("transient faults should be retried away: %v", err)
	}
	if err := checkRecovered(ms, mdl); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTorturePermanentFailure kills the device mid-workload: writes fail
// permanently, the store reports a sticky disk error, commits fail without
// panicking, and committed data stays readable.
func TestTorturePermanentFailure(t *testing.T) {
	fs := faultinject.NewFaultFS(3)
	ms, err := Open(tortureDir, tortureOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.PageStore().CrashForTest()
	mdl := newModel()
	if err := runTortureWorkload(ms, mdl, 10); err != nil {
		t.Fatal(err)
	}
	fs.FailWritesAfter(fs.Ops() + 1)
	err = runTortureWorkload(ms, newModel(), tortureIters)
	if err == nil {
		t.Fatal("writes should fail after the device died")
	}
	if !vfs.IsPermanent(err) && !errors.Is(err, vfs.ErrDiskFailure) {
		t.Fatalf("want a permanent disk error, got: %v", err)
	}
	if ms.DiskError() == nil {
		t.Fatal("store should report a sticky disk error")
	}
	// Reads still serve what committed before the failure.
	for _, id := range mdl.order {
		mm := mdl.msgs[id]
		if mm.removed {
			continue
		}
		if _, err := ms.Doc(id); err != nil {
			t.Fatalf("read of committed message %d failed in degraded state: %v", id, err)
		}
	}
}

// TestTortureDiskFull exhausts the write budget: commits fail with
// ErrDiskFull (a permanent condition for the engine) and nothing panics.
func TestTortureDiskFull(t *testing.T) {
	fs := faultinject.NewFaultFS(5)
	ms, err := Open(tortureDir, tortureOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.PageStore().CrashForTest()
	mdl := newModel()
	if err := runTortureWorkload(ms, mdl, 10); err != nil {
		t.Fatal(err)
	}
	fs.SetWriteBudget(4096)
	err = runTortureWorkload(ms, newModel(), tortureIters)
	if err == nil {
		t.Fatal("writes should fail once the disk fills")
	}
	if !errors.Is(err, vfs.ErrDiskFull) {
		t.Fatalf("want vfs.ErrDiskFull, got: %v", err)
	}
	if !vfs.IsPermanent(err) {
		t.Fatal("disk-full must classify as permanent so the engine degrades")
	}
}
