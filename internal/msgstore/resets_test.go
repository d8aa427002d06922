package msgstore

import (
	"slices"
	"strings"
	"testing"
	"time"

	"demaq/internal/xmldom"
)

// TestFirstTransferCreatesNoHeap: Open creates the two system heaps, so the
// first reliable transfer and the first reset of a store's life are plain
// inserts — no catalog entry is written, durably, inside a commit path.
func TestFirstTransferCreatesNoHeap(t *testing.T) {
	ms := openTemp(t)
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	heaps := func() []string {
		names := ms.PageStore().HeapNames()
		slices.Sort(names)
		return names
	}
	afterOpen := heaps()
	for _, sys := range []string{resetsHeapName, sessionsHeapName} {
		if !slices.Contains(afterOpen, sys) {
			t.Fatalf("heaps after Open %v lack %s", afterOpen, sys)
		}
	}
	tx := ms.Begin()
	if err := tx.Enqueue("q", xmldom.MustParse(`<m/>`), nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	tx.PutSession(SessionState{Kind: SessionRecv, Endpoint: "sim://here", Peer: "sim://there", Seq: 1, Window: []uint64{1}})
	tx.RecordReset("s", "k")
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ms.PutSession(SessionState{Kind: SessionSend, Endpoint: "sim://here", Seq: 64}); err != nil {
		t.Fatal(err)
	}
	if got := heaps(); !slices.Equal(got, afterOpen) {
		t.Fatalf("heaps after the first transfer %v, after Open %v", got, afterOpen)
	}
}

// TestUndecodableResetFailsLoudly: a reset record that does not decode is a
// lost reset — dismissed messages would be visible again — so replay reports
// it, and a store that holds one does not open.
func TestUndecodableResetFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, err := ms.ps.CreateHeap(resetsHeapName)
	if err != nil {
		t.Fatal(err)
	}
	whole := encodeReset(ResetEvent{Slicing: "requestMsgs", Key: "r1", Watermark: 7})
	pt := ms.ps.Begin()
	for _, rec := range [][]byte{whole, whole[:len(whole)-3]} {
		if _, err := pt.Insert(h, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Commit(); err != nil {
		t.Fatal(err)
	}
	if events, err := ms.ResetEvents(); err == nil || !strings.Contains(err.Error(), "truncated reset event") {
		t.Fatalf("replay over a truncated record: %v, %v", events, err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if ms2, err := Open(dir, DefaultOptions()); err == nil {
		ms2.Close()
		t.Fatal("a store with an undecodable reset record opened")
	}
}

// TestIDsResumeAboveResetWatermarks: a watermark is a message id that
// outlives the messages it dismissed. Had a restart resumed the ids below it
// — every message up to it collected — the next member of the slice would be
// born dismissed.
func TestIDsResumeAboveResetWatermarks(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ms.CreateQueue("q", Persistent, 0)
	var ids []MsgID
	for i := 0; i < 3; i++ {
		ids = append(ids, enqueue(t, ms, "q", `<m/>`, nil))
	}
	tx := ms.Begin()
	tx.MarkProcessedAll(ids)
	tx.RecordReset("s", "k")
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	watermark := tx.AppliedResets[0].Watermark
	if err := removeNow(ms, "q", ids); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	ms2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	ms2.CreateQueue("q", Persistent, 0)
	if id := enqueue(t, ms2, "q", `<m/>`, nil); id <= watermark {
		t.Fatalf("first id after the restart is %d, at or below the reset watermark %d", id, watermark)
	}
}
