package engine

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
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
)

// Tests of the outgoing sender pipeline (transmit stage + consume stage).
// They run on FaultNet, whose delivery is synchronous on the sender's
// goroutine: the order a receiver records is exactly the order of the
// transmit stage's sends.

const senderApp = `
create queue out kind outgoingGateway mode persistent
  interface recv.wsdl port RecvPort
  errorqueue errs;
create queue errs kind basic mode persistent;
`

const senderDest = "fnet://recv/inbox"

func wsdlFor(service, port, addr string) *fstest.MapFile {
	return &fstest.MapFile{Data: []byte(fmt.Sprintf(
		`<definitions><service name=%q><port name=%q><address location=%q/></port></service></definitions>`,
		service, port, addr))}
}

var senderFiles = fstest.MapFS{"recv.wsdl": wsdlFor("Recv", "RecvPort", senderDest)}

// recorder is a plain receiving endpoint that keeps every payload in
// arrival order.
type recorder struct {
	mu   sync.Mutex
	got  []string
	gate chan struct{} // non-nil: deliveries wait until it is closed
}

func (r *recorder) handle(payload []byte, _ map[string]string) error {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	r.got = append(r.got, string(payload))
	r.mu.Unlock()
	return nil
}

func (r *recorder) payloads() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.got...)
}

// problemLog counts what the engine logs at Warn or above.
type problemLog struct {
	n     atomic.Int64
	mu    sync.Mutex
	first string
}

func (l *problemLog) Enabled(_ context.Context, lv slog.Level) bool { return lv >= slog.LevelWarn }
func (l *problemLog) Handle(_ context.Context, r slog.Record) error {
	if l.n.Add(1) == 1 {
		l.mu.Lock()
		l.first = r.Message
		l.mu.Unlock()
	}
	return nil
}
func (l *problemLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *problemLog) WithGroup(string) slog.Handler      { return l }

func enqueueNumbered(t *testing.T, e *Engine, queue string, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if _, err := e.EnqueueXML(queue, fmt.Sprintf("<m>%d</m>", i), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// checkInOrder asserts got is <m>1</m>..<m>n</m>, each exactly once.
func checkInOrder(t *testing.T, got []string, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("receiver got %d transfers, want %d", len(got), n)
	}
	for i, p := range got {
		if want := fmt.Sprintf("<m>%d</m>", i+1); p != want {
			t.Fatalf("transfer %d = %q, want %q", i, p, want)
		}
	}
}

func checkAllProcessed(t *testing.T, e *Engine, queue string, n int) {
	t.Helper()
	msgs, err := e.MessageStore().Messages(queue)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != n {
		t.Fatalf("queue %s holds %d messages, want %d", queue, len(msgs), n)
	}
	for _, m := range msgs {
		if !m.Processed {
			t.Fatalf("message %d of %s is still unprocessed", m.ID, queue)
		}
	}
}

// TestOutgoingSenderGroupsConsume: under a backlog the transmit stage runs
// ahead of the consume commits, which then cover many transfers each; the
// wire order is the queue order, every message is sent and consumed exactly
// once, and Drain returns only after the last consume commit.
func TestOutgoingSenderGroupsConsume(t *testing.T) {
	const n = 200
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	// Durable commits (the default store): a consume commit costs a sync,
	// a send on this network next to nothing.
	e, err := New(Config{Dir: t.TempDir(), Workers: 1, Resources: senderFiles,
		Transports: gateway.NewRegistry(fn)}, qdl.MustParse(senderApp))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	enqueueNumbered(t, e, "out", n) // not started yet: a backlog of n
	e.Start()
	if !e.Drain(30 * time.Second) {
		t.Fatal("engine did not drain")
	}
	// No waiting from here on: Drain vouches for the consume commits.
	checkAllProcessed(t, e, "out", n)
	checkInOrder(t, rec.payloads(), n)
	st := e.Stats()
	if st.GatewaySent != n || st.GatewaySendErrors != 0 {
		t.Fatalf("sent=%d errors=%d, want %d and 0", st.GatewaySent, st.GatewaySendErrors, n)
	}
	if st.GatewayConsumeCommits == 0 || st.GatewayConsumeCommits*4 > n {
		t.Fatalf("%d consume commits for %d transfers: the consume stage is not grouping", st.GatewayConsumeCommits, n)
	}
	if st.GatewayConsumeCommits*consumeBatchCap < n {
		t.Fatalf("%d consume commits for %d transfers: a batch exceeded the cap of %d", st.GatewayConsumeCommits, n, consumeBatchCap)
	}
	t.Logf("%d transfers in %d consume commits", n, st.GatewayConsumeCommits)
}

// TestOutgoingSenderBacklogBeyondBuffer: a deep backlog, built up behind a
// stalled receiver on a running node, is delivered completely and in order
// once the receiver moves — no restart, nothing logged.
func TestOutgoingSenderBacklogBeyondBuffer(t *testing.T) {
	const n = 5000
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{gate: make(chan struct{})}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	logs := &problemLog{}
	cfg := Config{Dir: t.TempDir(), Workers: 1, Resources: senderFiles,
		Transports: gateway.NewRegistry(fn), Logger: slog.New(logs)}
	cfg.Store = msgstore.DefaultOptions()
	cfg.Store.Store.SyncCommits = false
	e, err := New(cfg, qdl.MustParse(senderApp))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	e.Start()
	enqueueNumbered(t, e, "out", n) // the first send is stuck at the gate
	if e.Drain(0) {
		t.Fatal("Drain reports an idle node with a backlog of undelivered messages")
	}
	close(rec.gate)
	if !e.Drain(60 * time.Second) {
		t.Fatalf("engine did not drain: %d of %d delivered", len(rec.payloads()), n)
	}
	checkAllProcessed(t, e, "out", n)
	checkInOrder(t, rec.payloads(), n)
	if logs.n.Load() != 0 {
		t.Fatalf("%d warnings or errors logged, first: %s", logs.n.Load(), logs.first)
	}
}

// TestSenderElementMismatch: an outgoing message whose root element is not
// the interface's is not sent; it is consumed with an error message in the
// queue's error queue, and the messages after it are still sent, in order.
func TestSenderElementMismatch(t *testing.T) {
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	files := fstest.MapFS{"recv.wsdl": &fstest.MapFile{Data: []byte(fmt.Sprintf(
		`<definitions><service name="Recv"><port name="RecvPort" element="m"><address location=%q/></port></service></definitions>`,
		senderDest))}}
	e, err := New(Config{Dir: t.TempDir(), Workers: 1, Resources: files, Logger: quietLog,
		Transports: gateway.NewRegistry(fn)}, qdl.MustParse(senderApp))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for _, doc := range []string{"<m>1</m>", "<x>stray</x>", "<m>2</m>"} {
		if _, err := e.EnqueueXML("out", doc, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	checkAllProcessed(t, e, "out", 3)
	checkInOrder(t, rec.payloads(), 2)
	errs, _ := e.MessageStore().QueueDocs("errs")
	if len(errs) != 1 {
		t.Fatalf("error queue holds %d messages, want 1", len(errs))
	}
	if d := errs[0].StringValue(); !strings.Contains(d, "does not match interface element") || !strings.Contains(d, "stray") {
		t.Fatalf("error message does not name the mismatch and embed the message: %s", d)
	}
	if st := e.Stats(); st.GatewaySent != 2 || st.Errors != 1 {
		t.Fatalf("sent=%d errors=%d, want 2 and 1", st.GatewaySent, st.Errors)
	}
}

// --- crash sweeps on FaultFS -----------------------------------------------

// crashNode is one node on a FaultFS that the test crashes and reboots.
type crashNode struct {
	t   *testing.T
	fs  *faultinject.FaultFS
	cfg Config
	app *qdl.Application
	eng *Engine

	// onReboot, if set, sees the recovered store after a crash, before the
	// node is started again.
	onReboot func()
}

func newCrashNode(t *testing.T, src string, files fstest.MapFS, tr gateway.Transport) *crashNode {
	fs := faultinject.NewFaultFS(7)
	return &crashNode{t: t, fs: fs, app: qdl.MustParse(src), cfg: Config{
		Dir: "node", Workers: 1, Store: tortureStoreOptions(fs), Resources: files,
		Transports: gateway.NewRegistry(tr),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}}
}

// open boots the node, riding out a crash armed to fire during boot.
func (c *crashNode) open() {
	c.t.Helper()
	for {
		e, err := New(c.cfg, c.app)
		if err == nil {
			c.eng = e
			return
		}
		if !c.fs.Crashed() {
			c.t.Fatalf("node open: %v", err)
		}
		c.fs.ClearFault()
	}
}

// settle lets the started node run until it is drained, rebooting it once
// if the armed crash fires on the way. It reports whether it crashed.
func (c *crashNode) settle() (crashed bool) {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !c.eng.Drain(0) || c.fs.Crashed() {
		if time.Now().After(deadline) {
			c.t.Fatal("node did not settle")
		}
		if c.fs.Crashed() {
			crashed = true
			c.eng.Stop()
			c.fs.ClearFault()
			c.open()
			if c.onReboot != nil {
				c.onReboot()
			}
			c.eng.Start()
		}
		time.Sleep(200 * time.Microsecond)
	}
	return crashed
}

// sweepSites returns the crash sites to visit between two op counts: all of
// them in a full run, a strided sample under -short.
func sweepSites(t *testing.T, from, to, shortSamples int) []int {
	var sites []int
	for k, stride := from+1, e2eStride(t, to-from, shortSamples, 0); k <= to; k += stride {
		sites = append(sites, k)
	}
	return sites
}

// TestGatewayDisconnectedErrorSurvivesCrash crashes the node at every disk
// op of the disconnected-endpoint scenario (Fig. 10): wherever the crash
// lands, after the reboot the failed transfer is consumed if and only if
// its <disconnectedTransport/> error message exists — the application is
// never left without the error it compensates on.
func TestGatewayDisconnectedErrorSurvivesCrash(t *testing.T) {
	const request = `<capacityRequest><requestID>d1</requestID><qty>5</qty></capacityRequest>`
	// run plays the scenario with a crash armed at site k (0: none) and
	// returns the op counts before the request and at the end.
	run := func(t *testing.T, k int) (from, to int) {
		net := gateway.NewNetwork(31)
		defer net.Close()
		net.SetDown("sim://supplier/requests", true)
		c := newCrashNode(t, buyerApp, gatewayFiles, net)
		c.open()
		defer func() { c.eng.Stop() }()
		c.eng.Start()
		from = c.fs.Ops()
		if k > 0 {
			c.fs.CrashAt(k)
		}
		_, enqErr := c.eng.EnqueueXML("work", request, nil)
		crashed := c.settle()
		if enqErr != nil && !crashed {
			t.Fatalf("enqueue: %v", enqErr)
		}
		ms := c.eng.MessageStore()
		if err := ms.VerifyIntegrity(); err != nil {
			t.Fatalf("integrity: %v", err)
		}
		work, _ := ms.Messages("work")
		out, _ := ms.Messages("supplierOut")
		errs, _ := ms.QueueDocs("netErrors")
		if enqErr == nil && len(work) != 1 {
			t.Fatalf("acknowledged request lost: work holds %d messages", len(work))
		}
		if len(out) != len(work) || len(errs) != len(out) {
			t.Fatalf("work=%d supplierOut=%d netErrors=%d: want one failed transfer and one error message per request",
				len(work), len(out), len(errs))
		}
		for _, m := range out {
			if !m.Processed {
				t.Fatalf("failed transfer %d not consumed", m.ID)
			}
		}
		for _, d := range errs {
			if d.Root().FirstChildElement("disconnectedTransport") == nil {
				t.Fatalf("error message without disconnectedTransport: %s", d.StringValue())
			}
		}
		return from, c.fs.Ops()
	}
	from, to := run(t, 0)
	if to == from {
		t.Fatal("op enumeration empty")
	}
	sites := sweepSites(t, from, to, 24)
	t.Logf("crashing at %d of %d disk sites", len(sites), to-from)
	for _, k := range sites {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) { run(t, k) })
	}
}

// TestPlainSenderAtLeastOnceAcrossCrash: over a plain transport a crash
// re-sends what was sent but not yet marked — nothing is lost, first
// deliveries stay in queue order, and the duplicates of one crash are
// bounded by the consume batch cap.
func TestPlainSenderAtLeastOnceAcrossCrash(t *testing.T) {
	const n = 300
	run := func(t *testing.T, k int) (from, to int) {
		fn := faultinject.NewFaultNet(1)
		defer fn.Close()
		rec := &recorder{}
		if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
			t.Fatal(err)
		}
		c := newCrashNode(t, senderApp, senderFiles, fn)
		c.open()
		defer func() { c.eng.Stop() }()
		enqueueNumbered(t, c.eng, "out", n)
		from = c.fs.Ops()
		if k > 0 {
			c.fs.CrashAt(k)
		}
		c.eng.Start()
		c.settle()
		if err := c.eng.MessageStore().VerifyIntegrity(); err != nil {
			t.Fatalf("integrity: %v", err)
		}
		checkAllProcessed(t, c.eng, "out", n)
		if docs, _ := c.eng.MessageStore().QueueDocs("errs"); len(docs) != 0 {
			t.Fatalf("error queue not empty: %s", docs[0].StringValue())
		}
		seen, next, dups := map[int]bool{}, 1, 0
		for _, p := range rec.payloads() {
			i, err := strconv.Atoi(p[len("<m>") : len(p)-len("</m>")])
			if err != nil {
				t.Fatalf("unexpected transfer %q", p)
			}
			switch {
			case seen[i]:
				dups++
			case i != next:
				t.Fatalf("first delivery of %d before %d", i, next)
			default:
				seen[i] = true
				next++
			}
		}
		if len(seen) != n {
			t.Fatalf("%d of %d messages delivered", len(seen), n)
		}
		if dups > consumeBatchCap {
			t.Fatalf("%d duplicates after one crash, cap is %d", dups, consumeBatchCap)
		}
		if k == 0 && dups != 0 {
			t.Fatalf("%d duplicates without a crash", dups)
		}
		return from, c.fs.Ops()
	}
	from, to := run(t, 0)
	sites := sweepSites(t, from, to, 12)
	t.Logf("crashing at %d of %d disk sites", len(sites), to-from)
	for _, k := range sites {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) { run(t, k) })
	}
}

// TestPlainSenderTrickleAcrossCrash: messages are published one transaction
// at a time while the sender chases them, so the crash lands among enqueue
// commits and small consume commits alike. After the reboot the receiver has
// exactly the messages the queue holds — none lost, and none sent whose
// enqueue the crash undid — first deliveries in queue order, with the
// duplicates bounded by the consume batch cap.
func TestPlainSenderTrickleAcrossCrash(t *testing.T) {
	const n = 40
	run := func(t *testing.T, k int) (from, to int) {
		fn := faultinject.NewFaultNet(1)
		defer fn.Close()
		rec := &recorder{}
		if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
			t.Fatal(err)
		}
		c := newCrashNode(t, senderApp, senderFiles, fn)
		c.open()
		defer func() { c.eng.Stop() }()
		c.eng.Start()
		from = c.fs.Ops()
		if k > 0 {
			c.fs.CrashAt(k)
		}
		crashed := false
		for i := 1; i <= n; i++ {
			// A failed enqueue may or may not have survived the crash; the
			// queue read below is the judge.
			if _, err := c.eng.EnqueueXML("out", fmt.Sprintf("<m>%d</m>", i), nil); err != nil {
				if !c.fs.Crashed() {
					t.Fatal(err)
				}
				crashed = c.settle() || crashed
			}
		}
		crashed = c.settle() || crashed
		if err := c.eng.MessageStore().VerifyIntegrity(); err != nil {
			t.Fatalf("integrity: %v", err)
		}
		msgs, err := c.eng.MessageStore().Messages("out")
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, m := range msgs {
			if !m.Processed {
				t.Fatalf("message %d of out is still unprocessed", m.ID)
			}
			doc, err := c.eng.MessageStore().Doc(m.ID)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, fmt.Sprintf("<m>%s</m>", doc.StringValue()))
		}
		if k == 0 && len(want) != n {
			t.Fatalf("queue holds %d messages without a crash, want %d", len(want), n)
		}
		seen, dups := map[string]bool{}, 0
		var first []string
		for _, p := range rec.payloads() {
			if seen[p] {
				dups++
				continue
			}
			seen[p] = true
			first = append(first, p)
		}
		if strings.Join(first, "") != strings.Join(want, "") {
			t.Fatalf("first deliveries %v, queue holds %v", first, want)
		}
		if dups > consumeBatchCap {
			t.Fatalf("%d duplicates after one crash, cap is %d", dups, consumeBatchCap)
		}
		if !crashed && dups != 0 {
			t.Fatalf("%d duplicates without a crash", dups)
		}
		return from, c.fs.Ops()
	}
	from, to := run(t, 0)
	sites := sweepSites(t, from, to, 12)
	t.Logf("crashing at %d of %d disk sites", len(sites), to-from)
	for _, k := range sites {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) { run(t, k) })
	}
}

// --- the real socket path ----------------------------------------------------

// tapTransport wraps the shared HTTP transport of a loopback pair: it keeps
// the properties every payload-carrying delivery arrived with, and can lose
// the first WS-RM acknowledgement to force a retransmit.
type tapTransport struct {
	gateway.Transport
	dropAck atomic.Bool

	mu    sync.Mutex
	props []map[string]string
}

func (tt *tapTransport) Send(dest string, payload []byte, props map[string]string) error {
	if _, isAck := props["demaq-rm-ack"]; isAck && tt.dropAck.CompareAndSwap(true, false) {
		return nil
	}
	return tt.Transport.Send(dest, payload, props)
}

func (tt *tapTransport) Subscribe(addr string, h gateway.Handler) (func(), error) {
	return tt.Transport.Subscribe(addr, func(payload []byte, props map[string]string) error {
		if len(payload) > 0 {
			cp := make(map[string]string, len(props))
			for k, v := range props {
				cp[k] = v
			}
			tt.mu.Lock()
			tt.props = append(tt.props, cp)
			tt.mu.Unlock()
		}
		return h(payload, props)
	})
}

// TestHTTPLoopbackEngineToEngine sends a rule-created message from one
// engine's outgoing gateway to another engine's incoming gateway over the
// HTTP transport, plain and under WS-ReliableMessaging: the transfer
// arrives with its system properties, is consumed at the sender without a
// network error, and a retransmit forced by a lost ack is suppressed.
func TestHTTPLoopbackEngineToEngine(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		name, policy := "plain", ""
		if reliable {
			name, policy = "reliable", "\n  using WS-ReliableMessaging policy rm.xml"
		}
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("cannot listen on loopback: %v", err)
			}
			addr := "http://" + ln.Addr().String() + "/queues/inbox"
			ln.Close()
			files := fstest.MapFS{
				"b.wsdl": wsdlFor("B", "InPort", addr),
				"rm.xml": &fstest.MapFile{Data: []byte(`<policy/>`)},
			}
			ht := gateway.NewHTTPTransport()
			defer ht.Close()
			tap := &tapTransport{Transport: ht}
			tap.dropAck.Store(reliable)
			mk := func(src string) *Engine {
				e, err := New(Config{Dir: t.TempDir(), Workers: 1, Resources: files,
					Transports: gateway.NewRegistry(tap)}, qdl.MustParse(src))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { e.Stop() })
				e.Start()
				return e
			}
			b := mk(fmt.Sprintf(`
				create queue inbox kind incomingGateway mode persistent
				  interface b.wsdl port InPort%s;
				create queue seen kind basic mode persistent;
				create rule keep for inbox
				  if (/note) then do enqueue <seen>{/note/text()}</seen> into seen;`, policy))
			a := mk(fmt.Sprintf(`
				create queue work kind basic mode persistent;
				create queue toB kind outgoingGateway mode persistent
				  interface b.wsdl port InPort%s
				  errorqueue netErrors;
				create queue netErrors kind basic mode persistent;
				create rule forward for work
				  if (/job) then do enqueue <note>{/job/text()}</note> into toB;`, policy))
			if _, err := a.EnqueueXML("work", "<job>hello</job>", nil); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool {
				docs, _ := b.MessageStore().QueueDocs("seen")
				return len(docs) == 1 && a.Drain(0)
			})
			if docs, _ := a.MessageStore().QueueDocs("netErrors"); len(docs) != 0 {
				t.Fatalf("network error over loopback HTTP: %s", docs[0].StringValue())
			}
			checkAllProcessed(t, a, "toB", 1)
			if st := a.Stats(); st.GatewaySent != 1 || st.GatewaySendErrors != 0 {
				t.Fatalf("sender stats: sent=%d errors=%d", st.GatewaySent, st.GatewaySendErrors)
			}
			if msgs, _ := b.MessageStore().Messages("inbox"); len(msgs) != 1 {
				t.Fatalf("receiver admitted %d transfers, want 1", len(msgs))
			}
			tap.mu.Lock()
			arrivals := tap.props
			tap.mu.Unlock()
			if len(arrivals) == 0 {
				t.Fatal("no delivery observed")
			}
			for _, props := range arrivals {
				if props["demaq:rule"] != "forward" || props["demaq:created"] == "" {
					t.Fatalf("system properties did not cross the wire: %v", props)
				}
			}
			if !reliable {
				return
			}
			if len(arrivals) < 2 {
				t.Fatal("the lost ack forced no retransmit")
			}
			for _, props := range arrivals {
				if props["demaq-rm-seq"] == "" || props["demaq-rm-source"] == "" {
					t.Fatalf("reliability properties did not cross the wire: %v", props)
				}
			}
			b.gws.mu.Lock()
			_, _, dups := b.gws.incomingRels[0].Stats()
			b.gws.mu.Unlock()
			if dups == 0 {
				t.Fatal("the retransmit was not recognized as a duplicate")
			}
		})
	}
}
