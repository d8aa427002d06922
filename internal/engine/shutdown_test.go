package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"demaq/internal/gateway"
	"demaq/internal/qdl"
)

func newBasicEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	app, err := qdl.Parse(`
		create queue in kind basic mode persistent;
		create rule r for in if (//m) then do enqueue <ok/> into in;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	e, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIngestBackpressure: with MaxBacklog set, admission sheds
// deterministically once the scheduler backlog hits the bound, with the
// overload error (HTTP 429), not the degraded/unavailable one (503).
func TestIngestBackpressure(t *testing.T) {
	e := newBasicEngine(t, Config{Workers: 1, MaxBacklog: 3})
	defer e.Stop()
	// Workers not started: every enqueue stays in the backlog.
	for i := 0; i < 3; i++ {
		if _, err := e.EnqueueXML("in", "<m/>", nil); err != nil {
			t.Fatalf("enqueue %d below the bound: %v", i, err)
		}
	}
	_, err := e.EnqueueXML("in", "<m/>", nil)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, gateway.ErrOverloaded) {
		t.Fatalf("enqueue at the bound: %v, want ErrOverloaded", err)
	}
	if errors.Is(err, gateway.ErrUnavailable) {
		t.Fatal("overload must be distinct from the degraded 503 verdict")
	}
	if shed := e.Stats().IngestShed; shed != 1 {
		t.Fatalf("IngestShed = %d, want 1", shed)
	}
}

// TestShutdownRefusesIngest: once shutdown begins, ingest is refused with
// an error transports map to 503 — the node is about to be gone.
func TestShutdownRefusesIngest(t *testing.T) {
	e := newBasicEngine(t, Config{Workers: 1})
	defer e.Stop()
	e.closing.Store(true)
	_, err := e.EnqueueXML("in", "<m/>", nil)
	if !errors.Is(err, ErrShutdown) || !errors.Is(err, gateway.ErrUnavailable) {
		t.Fatalf("enqueue while closing: %v, want ErrShutdown", err)
	}
}

// TestShutdownDrainsInFlight: Shutdown finishes the backlog within the
// drain budget before closing the store, and a reopened engine finds no
// unprocessed leftovers.
func TestShutdownDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	e := newBasicEngine(t, Config{Dir: dir, Workers: 2})
	e.Start()
	for i := 0; i < 50; i++ {
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
	if got := e2.Stats().Backlog; got != 0 {
		t.Fatalf("reopened backlog = %d, want 0 after a drained shutdown", got)
	}
}

// TestGatewayRestartResubscribes: stopping an engine releases its incoming
// reliable endpoints, so an in-process restart on the same transport can
// subscribe them again — and exactly-once holds across the restart.
func TestGatewayRestartResubscribes(t *testing.T) {
	net := gateway.NewNetwork(47)
	defer net.Close()
	reg := gateway.NewRegistry(net)
	mk := func(dir, src string) *Engine {
		app, err := qdl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Dir: dir, Workers: 2, Resources: gatewayFiles, Transports: reg}, app)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	buyerDir, supDir := t.TempDir(), t.TempDir()
	buyer := mk(buyerDir, buyerApp)
	sup := mk(supDir, supplierApp)
	sup.Start()
	buyer.Start()
	defer buyer.Stop()

	send := func(id string) {
		if _, err := buyer.EnqueueXML("work",
			fmt.Sprintf(`<capacityRequest><requestID>%s</requestID><qty>5</qty></capacityRequest>`, id), nil); err != nil {
			t.Fatal(err)
		}
	}
	results := func() int {
		docs, _ := buyer.MessageStore().QueueDocs("results")
		return len(docs)
	}
	send("r1")
	waitFor(t, 10*time.Second, func() bool { return results() == 1 })

	if err := sup.Stop(); err != nil {
		t.Fatalf("supplier stop: %v", err)
	}
	sup = mk(supDir, supplierApp)
	sup.Start()
	defer sup.Stop()

	send("r2")
	waitFor(t, 10*time.Second, func() bool { return results() == 2 })
	// Exactly-once across the restart: each request answered once.
	docs, _ := buyer.MessageStore().QueueDocs("results")
	seen := map[string]bool{}
	for _, d := range docs {
		key := childElement(d.Root(), "requestID").StringValue()
		if seen[key] {
			t.Fatalf("duplicate result %s after supplier restart", key)
		}
		seen[key] = true
	}
}
