package engine

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/store"
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
	fn := faultinject.NewFaultNet(1)
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

// TestCollectGarbageFlushesOnce: a retention pass over the procurement
// application — garbage in several queues, and the resets of every finished
// request — is one page-store commit with one log flush. It removes every
// processed message outside a live slice, keeps every live member, and
// forgets every reset that dismisses nothing any more.
func TestCollectGarbageFlushesOnce(t *testing.T) {
	const n = 120
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, qdl.ProcurementApp+procurementTap, func(cfg *Config) {
		cfg.Workers = 4
		cfg.Resources = senderFiles
		cfg.Transports = gateway.NewRegistry(fn)
	})
	for i := 0; i < n; i++ {
		xml, _ := procurementRequest(i)
		if _, err := e.EnqueueXML("crm", xml, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Drain(60 * time.Second) {
		t.Fatal("engine did not drain")
	}
	waitFor(t, 10*time.Second, func() bool { return len(rec.payloads()) == n })

	ms := e.MessageStore()
	var garbage, members []msgstore.MsgID
	for _, queue := range ms.QueueNames() {
		msgs, _ := ms.Messages(queue)
		for _, m := range msgs {
			switch {
			case len(e.slices.SlicesOf(m.ID)) > 0:
				members = append(members, m.ID)
			case m.Processed:
				garbage = append(garbage, m.ID)
			}
		}
	}
	resets, err := ms.ResetEvents()
	if err != nil || len(resets) < n {
		t.Fatalf("before the pass: %d reset records (%v), want one per request", len(resets), err)
	}
	before := ms.PageStore().Stats()
	collected, err := e.CollectGarbage()
	after := ms.PageStore().Stats()
	if err != nil || collected != len(garbage) {
		t.Fatalf("collected %d (%v), want the %d processed messages outside a live slice", collected, err, len(garbage))
	}
	if commits, flushes := after.Commits-before.Commits, after.WALFsyncs-before.WALFsyncs; commits != 1 || flushes != 1 {
		t.Fatalf("the pass made %d commits and %d log flushes, want 1 and 1", commits, flushes)
	}
	for _, id := range garbage {
		if _, live := ms.Get(id); live {
			t.Fatalf("processed message %d outside a live slice survived the pass", id)
		}
	}
	for _, id := range members {
		if _, live := ms.Get(id); !live {
			t.Fatalf("live slice member %d was collected", id)
		}
	}
	// The resets left are those that still dismiss a stored message.
	props := map[string]string{"requestMsgs": "requestID", "invoiceRetention": "messageRequestID", "retainOrders": "orderID"}
	resets, err = ms.ResetEvents()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range resets {
		if len(ms.PropertyIDsRange(props[ev.Slicing], ev.Key, 0, ev.Watermark, nil)) == 0 {
			t.Fatalf("reset %s/%s dismisses no stored message and outlived the pass (%d reset records left)", ev.Slicing, ev.Key, len(resets))
		}
	}
	if st := e.Stats(); st.GCPasses != 1 || st.GCPassNs == 0 || st.Collected != uint64(collected) {
		t.Fatalf("stats: %d passes in %d ns collected %d, want 1 pass collecting %d", st.GCPasses, st.GCPassNs, st.Collected, collected)
	}
}

// holdVFS is the OS file system with a gate on log flushes: while hold is
// armed, every Sync of a WAL segment waits for release.
type holdVFS struct {
	store.VFS
	mu   sync.Mutex
	gate chan struct{}
	held chan struct{}
}

func (v *holdVFS) OpenFile(path string) (store.File, error) {
	f, err := v.VFS.OpenFile(path)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "wal.") {
		return f, err
	}
	return &holdFile{File: f, v: v}, nil
}

// hold arms the gate. held receives once a flush is waiting at it; release
// opens it (once).
func (v *holdVFS) hold() (held <-chan struct{}, release func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.gate, v.held = make(chan struct{}), make(chan struct{}, 1)
	gate := v.gate
	var once sync.Once
	return v.held, func() {
		once.Do(func() {
			v.mu.Lock()
			v.gate = nil
			v.mu.Unlock()
			close(gate)
		})
	}
}

type holdFile struct {
	store.File
	v *holdVFS
}

func (f *holdFile) Sync() error {
	f.v.mu.Lock()
	gate, held := f.v.gate, f.v.held
	f.v.mu.Unlock()
	if gate != nil {
		select {
		case held <- struct{}{}:
		default:
		}
		<-gate
	}
	return f.File.Sync()
}

// TestCollectGarbageReleasesQueuesBeforeFlush: the collector holds a queue's
// exclusive lock only while it picks and unlinks that queue's garbage. While
// the pass waits for its log flush, every queue it collected can be locked
// exclusively by someone else.
func TestCollectGarbageReleasesQueuesBeforeFlush(t *testing.T) {
	const n = 20
	vfs := &holdVFS{VFS: store.OSFileSystem()}
	e := newEngine(t, pingPongApp, func(cfg *Config) {
		cfg.Store.Store = store.DefaultOptions()
		cfg.Store.Store.VFS = vfs
	})
	for i := 0; i < n; i++ {
		if _, err := e.EnqueueXML("in", fmt.Sprintf(`<ping>%d</ping>`, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, e) // every ping and every pong is processed: all of it is garbage

	held, release := vfs.hold()
	defer release()
	type result struct {
		n   int
		err error
	}
	collected := make(chan result, 1)
	go func() {
		n, err := e.CollectGarbage()
		collected <- result{n, err}
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the pass never flushed the log")
	}
	for i, queue := range []string{"in", "out"} {
		txn := uint64(1<<40 + i)
		got := make(chan error, 1)
		go func() { got <- e.lm.Acquire(txn, locks.Resource("q", queue), locks.X) }()
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			release()
			<-got
			e.lm.ReleaseAll(txn)
			t.Fatalf("queue %s stays locked while the pass waits for its flush", queue)
		}
		e.lm.ReleaseAll(txn)
	}
	release()
	select {
	case r := <-collected:
		if r.err != nil || r.n != 2*n {
			t.Fatalf("collected (%d, %v), want %d", r.n, r.err, 2*n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the collector did not finish once its flush was released")
	}
}
