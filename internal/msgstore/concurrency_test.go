package msgstore

import (
	"fmt"
	"sync"
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
		if got := len(ms.UnprocessedIDs(queue)); got != 0 {
			t.Fatalf("queue %s: %d unprocessed left", queue, got)
		}
	}
	// Remove everything processed from the persistent queue, concurrently
	// with a scanner.
	if err := ms.Remove("disk", processedIDs(ms, "disk")); err != nil {
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
	ms.Crash()

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
