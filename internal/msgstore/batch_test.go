package msgstore

import (
	"fmt"
	"testing"
	"time"

	"demaq/internal/xmldom"
)

// TestBatchCommitMultiQueue stages many enqueues across several queues
// plus a batch of processed flags in one transaction and verifies the
// grouped publish: every queue list stays in ID order, every message is
// resolvable by ID, and the flags landed.
func TestBatchCommitMultiQueue(t *testing.T) {
	opts := DefaultOptions()
	opts.Store.SyncCommits = false
	ms, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	queues := []string{"qa", "qb", "qc"}
	for _, q := range queues {
		if _, err := ms.CreateQueue(q, Persistent, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Seed messages to mark processed in the same batch commit.
	seed := ms.Begin()
	for i := 0; i < 10; i++ {
		if err := seed.Enqueue("qa", xmldom.MustParse(fmt.Sprintf(`<seed n="%d"/>`, i)), nil, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	seedOut, err := seed.Commit()
	if err != nil {
		t.Fatal(err)
	}
	var seeded []MsgID
	for _, m := range seedOut {
		seeded = append(seeded, m.ID)
	}

	// One batch transaction: 60 enqueues interleaved across 3 queues plus
	// all 10 processed flags.
	tx := ms.Begin()
	for i := 0; i < 60; i++ {
		q := queues[i%len(queues)]
		if err := tx.Enqueue(q, xmldom.MustParse(fmt.Sprintf(`<m n="%d"/>`, i)), nil, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.MarkProcessedAll(seeded); err != nil {
		t.Fatal(err)
	}
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 60 {
		t.Fatalf("commit returned %d messages, want 60", len(out))
	}
	perQueue := map[string][]MsgID{}
	for i, m := range out {
		if q := queues[i%len(queues)]; m.Queue != q {
			t.Fatalf("message %d in %s, staged into %s", i, m.Queue, q)
		}
		perQueue[m.Queue] = append(perQueue[m.Queue], m.ID)
	}

	for _, q := range queues {
		msgs, err := ms.Messages(q)
		if err != nil {
			t.Fatal(err)
		}
		want := perQueue[q]
		if q == "qa" {
			want = append(append([]MsgID{}, seeded...), want...)
		}
		if len(msgs) != len(want) {
			t.Fatalf("queue %s: %d messages, want %d", q, len(msgs), len(want))
		}
		for i, m := range msgs {
			if m.ID != want[i] {
				t.Fatalf("queue %s out of order at %d: %d want %d", q, i, m.ID, want[i])
			}
			if _, ok := ms.Get(m.ID); !ok {
				t.Fatalf("message %d not resolvable by ID", m.ID)
			}
		}
	}
	for _, id := range seeded {
		m, ok := ms.Get(id)
		if !ok || !m.Processed {
			t.Fatalf("seed %d not marked processed", id)
		}
	}
}

// TestBatchCommitSurvivesCrash: a batch commit is atomic and durable —
// after a crash, recovery sees all of the batch's enqueues and processed
// flags.
func TestBatchCommitSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	ms, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	seed := ms.Begin()
	for i := 0; i < 8; i++ {
		seed.Enqueue("q", xmldom.MustParse(`<in/>`), nil, time.Now())
	}
	seedOut, err := seed.Commit()
	if err != nil {
		t.Fatal(err)
	}
	var ids []MsgID
	for _, m := range seedOut {
		ids = append(ids, m.ID)
	}
	tx := ms.Begin()
	for i := 0; i < 5; i++ {
		if err := tx.Enqueue("q", xmldom.MustParse(fmt.Sprintf(`<out n="%d"/>`, i)), nil, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.MarkProcessedAll(ids); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ms.PageStore().CrashForTest()

	ms2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	msgs, err := ms2.Messages("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 13 {
		t.Fatalf("recovered %d messages, want 13", len(msgs))
	}
	processed := 0
	for _, m := range msgs {
		if m.Processed {
			processed++
		}
	}
	if processed != 8 {
		t.Fatalf("recovered %d processed flags, want 8", processed)
	}
}
