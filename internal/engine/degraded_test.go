package engine

import (
	"errors"
	"testing"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
	"demaq/internal/store"
	"demaq/internal/vfs"
)

// TestDegradedModeOnPermanentDiskFailure kills the device under a running
// engine: the failing ingest surfaces an error (no panic), the engine
// flips into degraded read-only mode, further ingest is refused with an
// error transports shed as 503, stats report the condition, and committed
// messages stay readable.
func TestDegradedModeOnPermanentDiskFailure(t *testing.T) {
	fs := faultinject.NewFaultFS(11)
	e := newEngine(t, pingPongApp, func(cfg *Config) {
		cfg.Dir = "degraded" // FaultFS-backed: never touches the real FS
		cfg.Store.Store = store.Options{
			VFS:         fs,
			SyncCommits: true,
		}
	})
	id, err := e.EnqueueXML("in", `<ping>before</ping>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, e)

	fs.FailWritesAfter(fs.Ops() + 1)
	// The first failing ingest reports the disk error and trips the mode.
	if _, err := e.EnqueueXML("in", `<ping>during</ping>`, nil); err == nil {
		t.Fatal("enqueue on a dead disk should fail")
	} else if !vfs.IsPermanent(err) {
		t.Fatalf("want a permanent storage error, got: %v", err)
	}
	if !e.Degraded() {
		t.Fatal("engine should be degraded after a permanent write failure")
	}
	// Subsequent ingest is shed before touching storage, with the error
	// the HTTP gateway maps to 503 + Retry-After.
	_, err = e.EnqueueXML("in", `<ping>after</ping>`, nil)
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, gateway.ErrUnavailable) {
		t.Fatalf("want ErrDegraded wrapping gateway.ErrUnavailable, got: %v", err)
	}
	if _, err := e.CollectGarbage(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("GC in degraded mode: %v", err)
	}

	st := e.Stats()
	if !st.Degraded || st.StorageError == "" {
		t.Fatalf("stats do not report degradation: %+v", st)
	}
	if e.StorageError() == nil {
		t.Fatal("StorageError should carry the tripping failure")
	}

	// Reads keep serving: the pre-failure message is intact.
	doc, err := e.MessageStore().Doc(id)
	if err != nil {
		t.Fatalf("read in degraded mode: %v", err)
	}
	if doc.StringValue() != "before" {
		t.Fatalf("read wrong payload: %q", doc.StringValue())
	}
	msgs, err := e.MessageStore().Messages("out")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("out queue unreadable in degraded mode: %v, %d msgs", err, len(msgs))
	}
}
