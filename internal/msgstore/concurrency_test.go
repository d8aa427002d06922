package msgstore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// TestConcurrentEnqueueProcessRemove exercises the striped-lock commit
// pipeline under -race: concurrent enqueuers on persistent and transient
// queues, concurrent processors marking messages processed, concurrent
// readers scanning, and a GC goroutine removing processed messages.
func TestConcurrentEnqueueProcessRemove(t *testing.T) {
	ms := openTemp(t)
	if _, err := ms.CreateQueue("disk", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateQueue("mem", Transient, 0); err != nil {
		t.Fatal(err)
	}

	const (
		workers    = 8
		perWorker  = 50
		totalPerQ  = workers * perWorker
		totalCount = 2 * totalPerQ
	)
	var wg sync.WaitGroup
	idCh := make(chan MsgID, totalCount)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for _, queue := range []string{"disk", "mem"} {
					tx := ms.Begin()
					doc := xmldom.MustParse(fmt.Sprintf(`<m w="%d" i="%d">payload</m>`, w, i))
					if err := tx.Enqueue(queue, doc, map[string]xdm.Value{"w": xdm.NewInteger(int64(w))}, time.Now()); err != nil {
						t.Error(err)
						return
					}
					out, err := tx.Commit()
					if err != nil {
						t.Error(err)
						return
					}
					idCh <- out[0].ID
				}
			}
		}(w)
	}
	// Processors mark committed messages processed while enqueues continue.
	var pwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for id := range idCh {
				tx := ms.Begin()
				tx.MarkProcessed(id)
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Readers scan both queues concurrently.
	stopRead := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				for _, queue := range []string{"disk", "mem"} {
					msgs, err := ms.Messages(queue)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 1; i < len(msgs); i++ {
						if msgs[i-1].ID >= msgs[i].ID {
							t.Errorf("queue %s scan out of ID order: %d then %d", queue, msgs[i-1].ID, msgs[i].ID)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(idCh)
	pwg.Wait()
	close(stopRead)
	rwg.Wait()

	for _, queue := range []string{"disk", "mem"} {
		if got := len(processedIDs(ms, queue)); got != totalPerQ {
			t.Fatalf("queue %s: %d processed, want %d", queue, got, totalPerQ)
		}
		if got := len(unprocessedIDs(ms, queue)); got != 0 {
			t.Fatalf("queue %s: %d unprocessed left", queue, got)
		}
	}
	// Remove everything processed from the persistent queue, concurrently
	// with a scanner.
	if err := removeNow(ms, "disk", processedIDs(ms, "disk")); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := ms.Messages("disk"); len(msgs) != 0 {
		t.Fatalf("disk queue after remove: %d messages", len(msgs))
	}
}

// TestConcurrentCommitDurability crashes the store after a burst of
// concurrent commits and verifies every committed message is recovered —
// the group-commit path must not trade away durability.
func TestConcurrentCommitDurability(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ms.CreateQueue("q", Persistent, 0)
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	committed := make([][]MsgID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := ms.Begin()
				if err := tx.Enqueue("q", xmldom.MustParse(fmt.Sprintf(`<m>%d-%d</m>`, w, i)), nil, time.Now()); err != nil {
					t.Error(err)
					return
				}
				out, err := tx.Commit()
				if err != nil {
					t.Error(err)
					return
				}
				committed[w] = append(committed[w], out[0].ID)
			}
		}(w)
	}
	wg.Wait()
	st := ms.PageStore().Stats()
	if st.WALFsyncs > st.Commits {
		t.Fatalf("more fsyncs (%d) than commits (%d)", st.WALFsyncs, st.Commits)
	}
	ms.PageStore().CrashForTest()

	ms2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	ms2.CreateQueue("q", Persistent, 0)
	for w := range committed {
		for _, id := range committed[w] {
			if _, ok := ms2.Get(id); !ok {
				t.Fatalf("committed message %d lost after crash", id)
			}
		}
	}
	if msgs, _ := ms2.Messages("q"); len(msgs) != workers*perWorker {
		t.Fatalf("recovered %d messages, want %d", len(msgs), workers*perWorker)
	}
}

// TestConcurrentCollections verifies per-collection striping: concurrent
// appends to distinct and shared collections stay consistent.
func TestConcurrentCollections(t *testing.T) {
	ms := openTemp(t)
	const workers, perWorker = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				own := fmt.Sprintf("c%d", w)
				if err := ms.AddToCollection(own, xmldom.MustParse(`<d/>`)); err != nil {
					t.Error(err)
					return
				}
				if err := ms.AddToCollection("shared", xmldom.MustParse(`<s/>`)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if got := len(ms.Collection(fmt.Sprintf("c%d", w))); got != perWorker {
			t.Fatalf("collection c%d: %d docs, want %d", w, got, perWorker)
		}
	}
	if got := len(ms.Collection("shared")); got != workers*perWorker {
		t.Fatalf("shared collection: %d docs, want %d", got, workers*perWorker)
	}
}

// TestInterleavedCommitOrderVisibility pins when a message gets its ID: at
// commit, not at staging. A transaction staged first and committed second
// gets the larger ID, and queue scans surface the messages in ID order.
func TestInterleavedCommitOrderVisibility(t *testing.T) {
	ms := openTemp(t)
	ms.CreateQueue("q", Persistent, 0)

	t1 := ms.Begin()
	if err := t1.Enqueue("q", xmldom.MustParse(`<first/>`), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	t2 := ms.Begin()
	if err := t2.Enqueue("q", xmldom.MustParse(`<second/>`), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	// The later-staged transaction commits first.
	out2, err := t2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	out1, err := t1.Commit()
	if err != nil {
		t.Fatal(err)
	}
	id1, id2 := out1[0].ID, out2[0].ID
	if id2 >= id1 {
		t.Fatalf("IDs follow staging, not commit: first %d, second %d", id1, id2)
	}
	msgs, err := ms.Messages("q")
	if err != nil || len(msgs) != 2 {
		t.Fatalf("messages: %v %v", msgs, err)
	}
	if msgs[0].ID != id2 || msgs[1].ID != id1 {
		t.Fatalf("scan order %d,%d; want %d,%d", msgs[0].ID, msgs[1].ID, id2, id1)
	}
}

// TestCursorFollowsPublication: producers commit batches into one queue —
// and into a second one, so that the ids of a queue have gaps — while a
// reader follows the queue with a cursor through UnprocessedAfter, marking
// what it read processed. Ids are assigned before the commit and published
// after it, so the producers publish out of id order; the publication
// frontier keeps the cursor from passing an id that is published later.
// The reader sees every message exactly once, in increasing id order.
func TestCursorFollowsPublication(t *testing.T) {
	opts := DefaultOptions()
	opts.Store.SyncCommits = false
	ms, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ms.CreateQueue("out", Persistent, 0)
	ms.CreateQueue("other", Persistent, 0)

	const producers, txns = 8, 150
	var wg sync.WaitGroup
	var done atomic.Bool
	produced := make([][]MsgID, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx := ms.Begin()
				queues := []string{"out"}
				for k := 0; k < i%3; k++ {
					queues = append(queues, "out")
				}
				if i%4 == 1 {
					queues = append([]string{"other"}, queues...)
				}
				for _, q := range queues {
					if err := tx.Enqueue(q, xmldom.MustParse(`<m/>`), nil, time.Now()); err != nil {
						t.Error(err)
						return
					}
				}
				out, _, err := tx.Precommit()
				if err != nil {
					t.Error(err)
					return
				}
				for _, m := range out {
					if m.Queue == "out" {
						produced[p] = append(produced[p], m.ID)
					}
				}
			}
		}(p)
	}
	go func() { wg.Wait(); done.Store(true) }()

	seen := map[MsgID]bool{}
	var cursor MsgID
	var buf []Message
	for {
		finished := done.Load()
		buf = ms.UnprocessedAfter("out", cursor, 16, buf[:0])
		if len(buf) == 0 {
			if finished {
				break
			}
			runtime.Gosched()
			continue
		}
		ids := make([]MsgID, 0, len(buf))
		for _, m := range buf {
			if m.ID <= cursor || seen[m.ID] {
				t.Fatalf("read %d with the cursor at %d", m.ID, cursor)
			}
			seen[m.ID] = true
			cursor = m.ID
			ids = append(ids, m.ID)
		}
		tx := ms.Begin()
		tx.MarkProcessedAll(ids)
		if _, _, err := tx.Precommit(); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, ids := range produced {
		total += len(ids)
		for _, id := range ids {
			if !seen[id] {
				t.Fatalf("message %d was published behind the cursor and never read", id)
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("read %d messages, %d were committed", len(seen), total)
	}
}
