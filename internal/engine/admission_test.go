package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/fstest"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/store"
	"demaq/internal/xmldom"
)

// Tests of admission in the commit pipeline: an admitted message is scheduled
// at its pre-commit, and only what leaves the node — the ack, the outgoing
// transfer — waits for the log.

const forwardApp = senderApp + `
create queue in kind basic mode persistent;
create rule fwd for in if (/m) then do enqueue <m>{/m/text()}</m> into out;
`

type enqueueResult struct {
	id  msgstore.MsgID
	err error
}

// TestAdmissionScheduledBeforeDurable: with the log held, an external enqueue
// has not returned, yet its message is processed and the output of its rule
// pre-committed — and none of it has left the node. Once the log goes
// through, the caller gets its ack and the receiver its transfer, once each.
func TestAdmissionScheduledBeforeDurable(t *testing.T) {
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(17)}
	e, err := New(Config{Dir: "early", Workers: 2, Logger: quietLog,
		Resources: senderFiles, Transports: gateway.NewRegistry(fn),
		Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
		qdl.MustParse(forwardApp))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	e.Start()
	release := vfs.holdSyncs()
	defer release()
	done := make(chan enqueueResult, 1)
	go func() {
		id, err := e.EnqueueWire("in", []byte(`<m>1</m>`), nil)
		done <- enqueueResult{id, err}
	}()
	// The message is through its rule as far as anyone in the process can
	// tell...
	waitFor(t, 10*time.Second, func() bool {
		out, _ := e.MessageStore().Messages("out")
		return e.Stats().Processed == 1 && len(out) == 1 && vfs.waiting.Load() > 0
	})
	checkAllProcessed(t, e, "in", 1)
	// ...and to no one outside: no ack, no transfer, no idle node.
	time.Sleep(30 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("enqueue returned (%d, %v) before its admission was durable", r.id, r.err)
	default:
	}
	if got := rec.payloads(); len(got) != 0 {
		t.Fatalf("%d transfers left the node while the admission they stem from waits for the log", len(got))
	}
	if e.Drain(20 * time.Millisecond) {
		t.Fatal("Drain reports an idle node while the log is held")
	}
	release()
	if r := <-done; r.err != nil {
		t.Fatal(r.err)
	}
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain once the log went through")
	}
	checkAllProcessed(t, e, "out", 1)
	checkInOrder(t, rec.payloads(), 1)
	if st := e.Stats(); st.Enqueued != 2 || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestAdmissionWALFailureAfterSchedule lets the log die under an admission
// whose message the workers have already processed: the caller gets the
// error, the engine turns degraded, nothing has left or leaves the node,
// Shutdown returns — and what a restart finds of the input, it processes
// exactly once.
func TestAdmissionWALFailureAfterSchedule(t *testing.T) {
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	c := newCrashNode(t, forwardApp, senderFiles, fn)
	vfs := &syncVFS{VFS: c.fs}
	c.cfg.Workers = 2
	c.cfg.Store.Store.VFS = vfs
	c.open()
	c.eng.Start()
	release := vfs.holdSyncs()
	defer release()
	done := make(chan enqueueResult, 1)
	go func() {
		id, err := c.eng.EnqueueWire("in", []byte(`<m>1</m>`), nil)
		done <- enqueueResult{id, err}
	}()
	waitFor(t, 10*time.Second, func() bool {
		out, _ := c.eng.MessageStore().Messages("out")
		return c.eng.Stats().Processed == 1 && len(out) == 1 && vfs.waiting.Load() > 0
	})
	// The sync the admission waits in is the next disk op: it fails, and with
	// it the device for good.
	c.fs.FailWritesAfter(c.fs.Ops() + 1)
	release()
	if r := <-done; r.err == nil {
		t.Fatalf("enqueue returned id %d although its admission never became durable", r.id)
	}
	if !c.eng.Degraded() {
		t.Fatal("engine is not degraded after the log failed")
	}
	returned := make(chan struct{})
	go func() {
		c.eng.Shutdown(200 * time.Millisecond) // the dead device's close error is expected
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hangs on a degraded node")
	}
	if got := rec.payloads(); len(got) != 0 {
		t.Fatalf("%d transfers left the node although nothing became durable", len(got))
	}

	// The machine did not lose power: a restart finds whatever the log wrote
	// before the device died — the input, or nothing.
	c.fs.ClearFault()
	c.open()
	defer func() { c.eng.Stop() }()
	in, _ := c.eng.MessageStore().Messages("in")
	t.Logf("the restart finds %d of the 1 input whose admission failed", len(in))
	c.eng.Start()
	if c.settle() {
		t.Fatal("unexpected crash")
	}
	if err := c.eng.MessageStore().VerifyIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	checkAllProcessed(t, c.eng, "in", len(in))
	checkAllProcessed(t, c.eng, "out", len(in))
	checkInOrder(t, rec.payloads(), len(in))
}

// TestMalformedTransferDoesNotWaitForLog: a malformed transfer is refused
// without waiting for the flush of its error message — the gateway handler
// may hold a reliable session's peer lock — and the error message is in its
// queue once the log goes through.
func TestMalformedTransferDoesNotWaitForLog(t *testing.T) {
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(29)}
	e, err := New(Config{Dir: "malformed", Workers: 1, Logger: quietLog,
		Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
		qdl.MustParse(`
		create queue in kind basic mode persistent errorqueue errs;
		create queue errs kind basic mode persistent;
	`))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	e.Start()
	release := vfs.holdSyncs()
	defer release()
	done := make(chan error, 1)
	go func() {
		_, err := e.gws.deliver("in", []byte(`<m>unclosed`), nil, nil)
		done <- err
	}()
	select {
	case err := <-done:
		var pe *xmldom.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("malformed transfer refused with %v, want a parse error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a malformed transfer waits for the log before it is refused")
	}
	release()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	waitFor(t, 10*time.Second, func() bool { return e.Stats().UndurableBatches == 0 })
	errs, _ := e.MessageStore().Messages("errs")
	if len(errs) != 1 {
		t.Fatalf("errs holds %d messages, want the error of the malformed transfer", len(errs))
	}
	doc, err := e.MessageStore().Doc(errs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if kind := xmldom.AppendSerialize(nil, doc); !strings.Contains(string(kind), "<kind>message</kind>") {
		t.Fatalf("error message %s", kind)
	}
}

// --- WS-RM admission ---------------------------------------------------------

const reliableInApp = `
create queue in kind incomingGateway mode persistent
  interface node.wsdl port InPort
  using WS-ReliableMessaging policy rm.xml;
`

const reliableInAddr = "sim://node/in"

var reliableInFiles = fstest.MapFS{
	"node.wsdl": wsdlFor("Node", "InPort", reliableInAddr),
	"rm.xml":    &fstest.MapFile{Data: []byte(`<policy/>`)},
}

// reliableInNode starts a node with one WS-RM incoming gateway queue on the
// simulated network — which delivers every transfer on a goroutine of its
// own — and a reliable client for it.
func reliableInNode(t *testing.T, vfs *syncVFS, retry time.Duration) (*Engine, *gateway.Reliable) {
	t.Helper()
	net := gateway.NewNetwork(1)
	t.Cleanup(net.Close)
	e, err := New(Config{Dir: "rm-in", Workers: 2, Logger: quietLog,
		Resources: reliableInFiles, Transports: gateway.NewRegistry(net),
		Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
		qdl.MustParse(reliableInApp))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Stop() })
	e.Start()
	client, err := gateway.NewReliable(net, "sim://client/acks", retry, 1000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	if err := client.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return e, client
}

// TestReliableSessionSharesFlush: the per-peer admit lock does not cover the
// wait for the log, so the transfers of one session that are in flight
// together are admitted by a handful of flushes — not one each, which is what
// holding the lock across the device made of a session whatever group commit
// could coalesce.
func TestReliableSessionSharesFlush(t *testing.T) {
	const n = 64
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(19), delay: time.Millisecond}
	e, client := reliableInNode(t, vfs, 5*time.Second) // no retransmits
	fsyncs := e.MessageStore().PageStore().Stats().WALFsyncs
	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 1; i <= n; i++ {
		wg.Add(1)
		client.SendAsync(reliableInAddr, []byte(fmt.Sprintf("<m>%d</m>", i)), nil, func(err error) {
			if err != nil {
				failed.Add(1)
			}
			wg.Done()
		})
	}
	wg.Wait()
	elapsed := time.Since(start)
	if failed.Load() != 0 {
		t.Fatalf("%d of %d transfers were not acknowledged", failed.Load(), n)
	}
	fsyncs = e.MessageStore().PageStore().Stats().WALFsyncs - fsyncs
	t.Logf("%d transfers of one session acknowledged in %s (%.0f/s) with %d WAL fsyncs of >= 1 ms",
		n, elapsed, n/elapsed.Seconds(), fsyncs)
	if fsyncs > n/2 {
		t.Fatalf("%d WAL fsyncs for %d transfers of one session: they do not share flushes", fsyncs, n)
	}
	if msgs, _ := e.MessageStore().Messages("in"); len(msgs) != n {
		t.Fatalf("in holds %d messages, want %d", len(msgs), n)
	}
	if _, _, dups := e.gws.incomingRels[0].Stats(); dups != 0 {
		t.Fatalf("%d duplicates without a retransmit", dups)
	}
}

// TestReliableDuplicateBeforeDurable: a retransmit that arrives while the
// original is pre-committed but not durable is a duplicate — and is not
// acknowledged: no ack is on the wire until the log has the transfer, and
// then one message is stored and the sender gets its ack.
func TestReliableDuplicateBeforeDurable(t *testing.T) {
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(23)}
	e, client := reliableInNode(t, vfs, 4*time.Millisecond) // retransmits every few ms
	// The first transfer of a store's life creates the session heap, which is
	// a durable commit of its own under the admit lock: get it out of the way.
	done := make(chan error, 1)
	client.SendAsync(reliableInAddr, []byte(`<m>0</m>`), nil, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_, _, before := e.gws.incomingRels[0].Stats()
	release := vfs.holdSyncs()
	defer release()
	client.SendAsync(reliableInAddr, []byte(`<m>1</m>`), nil, func(err error) { done <- err })
	// The original is pre-committed — stored and scheduled, the window lists
	// it — and retransmits of it keep arriving.
	waitFor(t, 10*time.Second, func() bool {
		_, _, dups := e.gws.incomingRels[0].Stats()
		return dups >= before+3 && vfs.waiting.Load() > 0
	})
	if msgs, _ := e.MessageStore().Messages("in"); len(msgs) != 2 {
		t.Fatalf("in holds %d messages, want the warm-up and the one pre-committed", len(msgs))
	}
	select {
	case err := <-done:
		t.Fatalf("the transfer completed (%v) before its admission was durable", err)
	default:
	}
	if acked, _, _ := client.Stats(); acked != 1 {
		t.Fatal("an ack reached the sender while the log was held: a duplicate of an un-durable transfer was acknowledged")
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no ack once the log went through")
	}
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	checkAllProcessed(t, e, "in", 2)
	if st := e.Stats(); st.Enqueued != 2 {
		t.Fatalf("%d messages admitted, want 2", st.Enqueued)
	}
}

// --- crash sweep: admission beside the running workers -----------------------

// TestAdmissionPipelineCrashSweep is TestPipelinedCommitCrashSweep with the
// inputs admitted by concurrent clients while the workers run: a worker then
// processes an input whose admission is still in the unflushed log buffer,
// and its transaction joins it there. At every disk op the recovered store
// is consistent and holds every input a client got an ack for and everything
// the sink has seen; the clients send what it does not hold again, and then
// every request has exactly one offer or refusal.
func TestAdmissionPipelineCrashSweep(t *testing.T) {
	const n, clients = 16, 4
	run := func(t *testing.T, k int) (from, to int, ahead int64) {
		p := newPipelineNode(t, 2)
		p.open()
		defer func() { p.eng.Stop() }()
		p.eng.Start()
		from = p.fs.Ops()
		if k > 0 {
			p.fs.CrashAt(k)
		}
		// The clients stop at the first refusal: the node is down then.
		var mu sync.Mutex
		acked := map[string]bool{}
		var ranAhead atomic.Int64
		var wg sync.WaitGroup
		eng := p.eng
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < n; i += clients {
					xml, _ := procurementRequest(i)
					id, err := eng.EnqueueXML("crm", xml, nil)
					if err != nil {
						return
					}
					if m, ok := eng.MessageStore().Get(id); ok && m.Processed {
						ranAhead.Add(1)
					}
					mu.Lock()
					acked[fmt.Sprintf("r%d", i)] = true
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		p.onReboot = func() {
			when := fmt.Sprintf("after the crash at op %d", k)
			p.checkSentIsStored(when)
			stored := map[string]bool{}
			docs, err := p.eng.MessageStore().QueueDocs("crm")
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				if d.Root().Name.Local == "offerRequest" {
					stored[d.Root().FirstChildElement("requestID").StringValue()] = true
				}
			}
			for id := range acked {
				if !stored[id] {
					t.Fatalf("%s: the client holds an ack for %s, the store does not hold it", when, id)
				}
			}
			for i := 0; i < n; i++ {
				if !stored[fmt.Sprintf("r%d", i)] {
					xml, _ := procurementRequest(i)
					if _, err := p.eng.EnqueueXML("crm", xml, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if crashed := p.settle(); !crashed && len(acked) != n {
			t.Fatalf("no crash, and only %d of %d inputs were acknowledged", len(acked), n)
		}
		p.checkSentIsStored("at the end")
		p.checkConverged(n)
		return from, p.fs.Ops(), ranAhead.Load()
	}
	from, to, ahead := run(t, 0)
	// The probe: the sweep is only worth its name if inputs really were
	// processed before their admission was durable.
	if ahead == 0 {
		t.Fatal("no input was processed by the time its admission returned")
	}
	sites := sweepSites(t, from, to, 16)
	t.Logf("crashing at %d of %d disk sites; fault-free: %d of %d inputs were processed before their ack", len(sites), to-from, ahead, n)
	for _, k := range sites {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) { run(t, k) })
	}
}
