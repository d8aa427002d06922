package msgstore

import (
	"fmt"
	"testing"
	"time"

	"demaq/internal/xmldom"
)

// TestSessionRoundtrip: every field of a session snapshot survives the
// record codec. The codec elides the window's all-ones tail (fully-admitted
// old region); the restore side treats absent words as all-ones, so the
// elision is semantically lossless.
func TestSessionRoundtrip(t *testing.T) {
	in := SessionState{
		Kind:     SessionRecv,
		Endpoint: "fnet://node/in",
		Peer:     "fnet://client/acks",
		Seq:      12345,
		Window:   []uint64{0xdeadbeef, 1, 0, 7},
	}
	ver, out, err := decodeSession(encodeSession(77, in))
	if err != nil {
		t.Fatal(err)
	}
	if ver != 77 {
		t.Fatalf("ver = %d, want 77", ver)
	}
	if out.Kind != in.Kind || out.Endpoint != in.Endpoint || out.Peer != in.Peer || out.Seq != in.Seq {
		t.Fatalf("roundtrip mismatch: %+v != %+v", out, in)
	}
	if len(out.Window) != len(in.Window) {
		t.Fatalf("window length %d, want %d", len(out.Window), len(in.Window))
	}
	for i := range in.Window {
		if out.Window[i] != in.Window[i] {
			t.Fatalf("window[%d] = %x, want %x", i, out.Window[i], in.Window[i])
		}
	}

	// All-ones tail elision: the dense steady-state window persists as a
	// prefix; words below the kept prefix are exactly the zeros/partials.
	dense := SessionState{
		Kind: SessionRecv, Endpoint: "ep", Peer: "p", Seq: 9999,
		Window: []uint64{0xdeadbeef, ^uint64(0), ^uint64(0), ^uint64(0)},
	}
	if _, got, err := decodeSession(encodeSession(1, dense)); err != nil {
		t.Fatal(err)
	} else if len(got.Window) != 1 || got.Window[0] != 0xdeadbeef {
		t.Fatalf("dense window persisted as %x, want the [deadbeef] prefix", got.Window)
	}

	// Corrupt truncations must error, not panic.
	enc := encodeSession(1, in)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := decodeSession(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// TestSessionTxnAtomicity: a session snapshot staged with an enqueue is
// durable iff the enqueue is, and the newest version wins after reopen.
func TestSessionTxnAtomicity(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		tx := ms.Begin()
		if err := tx.Enqueue("q", xmldom.MustParse(fmt.Sprintf(`<m n="%d"/>`, i)), nil, time.Now()); err != nil {
			t.Fatal(err)
		}
		tx.PutSession(SessionState{Kind: SessionRecv, Endpoint: "ep", Peer: "peer", Seq: uint64(i), Window: []uint64{1}})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Aborted snapshot leaves no trace.
	tx := ms.Begin()
	tx.PutSession(SessionState{Kind: SessionRecv, Endpoint: "ep", Peer: "peer", Seq: 99})
	tx.Abort()

	s, ok := ms.SessionSnapshot(SessionRecv, "ep", "peer")
	if !ok || s.Seq != 5 {
		t.Fatalf("live snapshot = %+v, %v; want Seq 5", s, ok)
	}
	ms.PageStore().CrashForTest()

	ms2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	s, ok = ms2.SessionSnapshot(SessionRecv, "ep", "peer")
	if !ok || s.Seq != 5 || len(s.Window) != 1 || s.Window[0] != 1 {
		t.Fatalf("recovered snapshot = %+v, %v; want Seq 5", s, ok)
	}
	if err := ms2.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	got := ms2.RecvSessionStates("ep")
	if len(got) != 1 || got[0].Peer != "peer" {
		t.Fatalf("RecvSessionStates = %+v", got)
	}
}

// TestSessionCompaction: a hot key's stale on-disk versions are garbage
// collected, so the heap does not grow one record per update forever.
func TestSessionCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Store.SyncCommits = false
	ms, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const updates = 500
	for i := 1; i <= updates; i++ {
		if err := ms.PutSession(SessionState{Kind: SessionSend, Endpoint: "src", Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ms.sessMu.Lock()
	live := len(ms.sessions[sessionKey{kind: SessionSend, endpoint: "src"}].recs)
	ms.sessMu.Unlock()
	if live > sessionCompactAfter+1 {
		t.Fatalf("%d record versions retained in memory, want <= %d", live, sessionCompactAfter+1)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	ms2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	s, ok := ms2.SessionSnapshot(SessionSend, "src", "")
	if !ok || s.Seq != updates {
		t.Fatalf("recovered snapshot = %+v, %v; want Seq %d", s, ok, updates)
	}
	ms2.sessMu.Lock()
	onDisk := len(ms2.sessions[sessionKey{kind: SessionSend, endpoint: "src"}].recs)
	ms2.sessMu.Unlock()
	if onDisk > 2*sessionCompactAfter {
		t.Fatalf("%d session records on disk after %d updates, want compaction to bound it", onDisk, updates)
	}
}
