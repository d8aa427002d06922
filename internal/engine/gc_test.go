package engine

import (
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"demaq/internal/gateway"
	"demaq/internal/qdl"
	locks "demaq/internal/txn"
)

// Tests of the retention collector beside running rules.

// TestCollectGarbageWaitsForQueueReaders: a rule's qs:queue() read lists the
// queue and then fetches what it listed, under the queue's shared lock. The
// collector takes the exclusive lock of each queue it collects, so while an
// evaluation has the listing open nothing of it goes away — and the collector
// waits for that one queue holding nothing else.
func TestCollectGarbageWaitsForQueueReaders(t *testing.T) {
	const n = 20
	e := newEngine(t, pingPongApp, nil)
	for i := 0; i < n; i++ {
		if _, err := e.EnqueueXML("in", fmt.Sprintf(`<ping>%d</ping>`, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, e) // every ping and every pong is processed: all of it is garbage

	// A test-owned evaluation lists the queue, as a rule's qs:queue("in") does.
	const reader = 1 << 40
	rt := &evalRuntime{eng: e, txnID: reader, queue: "out"}
	listing, err := rt.Queue("in")
	if err != nil || len(listing) != n {
		t.Fatalf("qs:queue listing: %d documents, %v", len(listing), err)
	}
	ids, _ := e.MessageStore().Messages("in")

	waits, _ := e.lm.Stats()
	type result struct {
		n   int
		err error
	}
	collected := make(chan result, 1)
	go func() {
		n, err := e.CollectGarbage()
		collected <- result{n, err}
	}()
	waitFor(t, 10*time.Second, func() bool { w, _ := e.lm.Stats(); return w > waits })
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-collected:
		t.Fatalf("the collector finished (%d, %v) under an open qs:queue() listing", r.n, r.err)
	default:
	}
	// The evaluation goes on to fetch what it listed.
	for _, m := range ids {
		if _, err := e.MessageStore().Doc(m.ID); err != nil {
			t.Fatalf("message %d of the listing is gone: %v", m.ID, err)
		}
	}
	// It holds no other queue meanwhile: out can be worked in.
	if err := e.lm.Acquire(reader+1, locks.Resource("q", "out"), locks.IX); err != nil {
		t.Fatal(err)
	}
	e.lm.ReleaseAll(reader + 1)

	e.lm.ReleaseAll(reader)
	select {
	case r := <-collected:
		if r.err != nil || r.n != 2*n {
			t.Fatalf("collected (%d, %v), want %d", r.n, r.err, 2*n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the collector did not finish once the listing was closed")
	}
	if msgs, _ := e.MessageStore().Messages("in"); len(msgs) != 0 {
		t.Fatalf("in still holds %d messages", len(msgs))
	}
}

// TestCollectGarbageBesideRules runs the collector in a loop beside the
// procurement application, whose join rule reads qs:queue("crm") while the
// collector removes the finished requests from it: no rule fails with
// "message not found", and every request gets its one result.
func TestCollectGarbageBesideRules(t *testing.T) {
	const n, clients = 240, 4
	fn := gateway.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	logs := &problemLog{}
	e := newEngine(t, qdl.ProcurementApp+procurementTap, func(cfg *Config) {
		cfg.Workers = 4
		cfg.Resources = senderFiles
		cfg.Transports = gateway.NewRegistry(fn)
		cfg.Logger = slog.New(logs)
	})
	stop := make(chan struct{})
	var gc sync.WaitGroup
	gc.Add(1)
	passes, collected := 0, 0
	go func() {
		defer gc.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			k, err := e.CollectGarbage()
			if err != nil {
				t.Error(err)
				return
			}
			passes, collected = passes+1, collected+k
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				xml, _ := procurementRequest(i)
				if _, err := e.EnqueueXML("crm", xml, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	drained := e.Drain(60 * time.Second)
	close(stop)
	gc.Wait()
	if !drained {
		t.Fatal("engine did not drain")
	}
	t.Logf("%d collector passes removed %d messages beside %d requests", passes, collected, n)
	if st := e.Stats(); st.Errors != 0 || logs.n.Load() != 0 {
		t.Fatalf("%d rule errors, %d warnings or errors logged, first: %s", st.Errors, logs.n.Load(), logs.first)
	}
	if collected == 0 {
		t.Fatal("the collector removed nothing: it did not run beside the rules")
	}
	sent := map[string]bool{}
	for _, p := range rec.payloads() {
		sent[p] = true
	}
	for i := 0; i < n; i++ {
		if !sent[procurementResult(i)] {
			t.Fatalf("the sink never received %s", procurementResult(i))
		}
	}
	if len(sent) != n || len(rec.payloads()) != n {
		t.Fatalf("the sink received %d transfers of %d distinct results, want %d of each", len(rec.payloads()), len(sent), n)
	}
}
