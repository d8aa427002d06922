package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"demaq/internal/qdl"
	locks "demaq/internal/txn"
	"demaq/internal/xdm"
)

func newEngine(t *testing.T, src string, mutate func(*Config)) *Engine {
	t.Helper()
	app, err := qdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: t.TempDir(), Workers: 4}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Stop() })
	e.Start()
	return e
}

func drain(t *testing.T, e *Engine) {
	t.Helper()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
}

func queueBodies(t *testing.T, e *Engine, queue string) []string {
	t.Helper()
	docs, err := e.MessageStore().QueueDocs(queue)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range docs {
		out = append(out, d.Root().Name.Local)
	}
	return out
}

const pingPongApp = `
create queue in kind basic mode persistent;
create queue out kind basic mode persistent;
create rule respond for in
  if (//ping) then
    do enqueue <pong>{//ping/text()}</pong> into out;
`

func TestBasicRuleFlow(t *testing.T) {
	e := newEngine(t, pingPongApp, nil)
	if _, err := e.EnqueueXML("in", `<ping>hello</ping>`, nil); err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	docs, _ := e.MessageStore().QueueDocs("out")
	if len(docs) != 1 || docs[0].Root().Name.Local != "pong" || docs[0].StringValue() != "hello" {
		t.Fatalf("out: %v", queueBodies(t, e, "out"))
	}
	// The input message is processed exactly once.
	msgs, _ := e.MessageStore().Messages("in")
	if len(msgs) != 1 || !msgs[0].Processed {
		t.Fatalf("in: %+v", msgs)
	}
	st := e.Stats()
	if st.Processed < 1 || st.Enqueued < 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRuleChaining(t *testing.T) {
	e := newEngine(t, `
		create queue a kind basic mode persistent;
		create queue b kind basic mode persistent;
		create queue c kind basic mode persistent;
		create rule ab for a if (//go) then do enqueue <go/> into b;
		create rule bc for b if (//go) then do enqueue <done/> into c;
	`, nil)
	e.EnqueueXML("a", `<go/>`, nil)
	drain(t, e)
	if got := queueBodies(t, e, "c"); len(got) != 1 || got[0] != "done" {
		t.Fatalf("chain: %v", got)
	}
}

func TestMultipleRulesAllEvaluated(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create rule r1 for in if (//m) then do enqueue <from1/> into out;
		create rule r2 for in if (//m) then do enqueue <from2/> into out;
		create rule r3 for in if (//never) then do enqueue <from3/> into out;
	`, nil)
	e.EnqueueXML("in", `<m/>`, nil)
	drain(t, e)
	got := queueBodies(t, e, "out")
	if len(got) != 2 || got[0] != "from1" || got[1] != "from2" {
		t.Fatalf("rules: %v", got)
	}
}

func TestConditionElseBranch(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create queue yes kind basic mode persistent;
		create queue no kind basic mode persistent;
		create rule decide for in
		  if (//amount > 100) then do enqueue <big/> into yes
		  else do enqueue <small/> into no;
	`, nil)
	e.EnqueueXML("in", `<order><amount>500</amount></order>`, nil)
	e.EnqueueXML("in", `<order><amount>7</amount></order>`, nil)
	drain(t, e)
	if len(queueBodies(t, e, "yes")) != 1 || len(queueBodies(t, e, "no")) != 1 {
		t.Fatal("else branch")
	}
}

func TestPropertiesFlowThroughEnqueue(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create property tag as xs:string inherited
		  queue in, out value "default";
		create rule fwd for in
		  if (//m) then do enqueue <fwd/> into out;
	`, nil)
	id, _ := e.EnqueueXML("in", `<m/>`, map[string]xdm.Value{"tag": xdm.NewString("custom")})
	drain(t, e)
	if v, ok := e.MessageStore().Property(id, "tag"); !ok || v.S != "custom" {
		t.Fatalf("explicit prop: %v", v)
	}
	// The forwarded message inherits "custom" from its trigger.
	out, _ := e.MessageStore().Messages("out")
	if len(out) != 1 {
		t.Fatal("no output")
	}
	if v, ok := out[0].Props["tag"]; !ok || v.S != "custom" {
		t.Fatalf("inherited prop: %+v", out[0].Props)
	}
	// System property: the creating rule.
	if v, ok := out[0].Props["demaq:rule"]; !ok || v.S != "fwd" {
		t.Fatalf("system prop: %+v", out[0].Props)
	}
}

// TestCreatingRuleNamesTheRule: when several rules fire on one message each
// created message carries the name of the rule that created it, whatever
// else was selected before it.
func TestCreatingRuleNamesTheRule(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create rule first for in
		  if (//m) then do enqueue <a/> into out;
		create rule second for in
		  if (//m) then do enqueue <b/> into out;
	`, nil)
	e.EnqueueXML("in", `<m/>`, nil)
	drain(t, e)
	out, _ := e.MessageStore().Messages("out")
	if len(out) != 2 {
		t.Fatalf("outputs: %d", len(out))
	}
	for i, want := range []string{"first", "second"} {
		if got := out[i].Props["demaq:rule"].S; got != want {
			t.Errorf("output %d created by %q, want %q", i, got, want)
		}
	}
}

func TestSliceJoinAcrossQueues(t *testing.T) {
	// A two-way join via a slicing: emit <both/> only once both parts for
	// the same key have arrived (the Fig. 7 pattern reduced to two inputs).
	e := newEngine(t, `
		create queue left kind basic mode persistent;
		create queue right kind basic mode persistent;
		create queue joined kind basic mode persistent;
		create property key as xs:string fixed
		  queue left, right value //key;
		create slicing byKey on key;
		create rule join for byKey
		  if (qs:slice()[/l] and qs:slice()[/r]) then
		    do enqueue <both><key>{qs:slicekey()}</key></both> into joined;
		create rule cleanup for byKey
		  if (qs:slice()[/l] and qs:slice()[/r]) then do reset;
	`, nil)
	e.EnqueueXML("left", `<l><key>k1</key></l>`, nil)
	e.EnqueueXML("right", `<r><key>k2</key></r>`, nil) // different key: no join
	drain(t, e)
	if got := queueBodies(t, e, "joined"); len(got) != 0 {
		t.Fatalf("premature join: %v", got)
	}
	e.EnqueueXML("right", `<r><key>k1</key></r>`, nil)
	drain(t, e)
	got := queueBodies(t, e, "joined")
	if len(got) != 1 || got[0] != "both" {
		t.Fatalf("join: %v", got)
	}
	docs, _ := e.MessageStore().QueueDocs("joined")
	if docs[0].StringValue() != "k1" {
		t.Fatalf("joined key: %q", docs[0].StringValue())
	}
	// The cleanup rule reset the slice: members are gone from slice view.
	if n := len(e.Slices().SliceMembers("byKey", "k1")); n != 0 {
		t.Fatalf("slice not reset: %d members", n)
	}
}

func TestRetentionGCAfterReset(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create property k as xs:string fixed queue in value //k;
		create slicing byK on k;
		create rule done for byK
		  if (qs:slice()[/finish]) then do reset;
	`, nil)
	e.EnqueueXML("in", `<m><k>a</k></m>`, nil)
	e.EnqueueXML("in", `<m><k>a</k></m>`, nil)
	drain(t, e)
	if n, _ := e.CollectGarbage(); n != 0 {
		t.Fatalf("retained messages collected: %d", n)
	}
	e.EnqueueXML("in", `<finish><k>a</k></finish>`, nil)
	drain(t, e)
	n, err := e.CollectGarbage()
	if err != nil || n != 3 {
		t.Fatalf("gc after reset: %d %v", n, err)
	}
	msgs, _ := e.MessageStore().Messages("in")
	if len(msgs) != 0 {
		t.Fatalf("messages remain: %d", len(msgs))
	}
	// The pass that removed the last message the reset dismissed also
	// forgot the reset: nothing is left for a restart to replay.
	if events, err := e.MessageStore().ResetEvents(); err != nil || len(events) != 0 {
		t.Fatalf("reset records after the pass: %v %v", events, err)
	}
}

func TestErrorRoutedToRuleErrorQueue(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create queue errs kind basic mode persistent;
		create queue out kind basic mode persistent;
		create rule bad for in errorqueue errs
		  if (//m) then do enqueue <x>{1 idiv 0}</x> into out;
	`, nil)
	e.EnqueueXML("in", `<m><zero>0</zero></m>`, nil)
	drain(t, e)
	docs, _ := e.MessageStore().QueueDocs("errs")
	if len(docs) != 1 {
		t.Fatalf("error queue: %v", queueBodies(t, e, "errs"))
	}
	root := docs[0].Root()
	if root.Name.Local != "error" {
		t.Fatal("error document shape")
	}
	if childElement(root, "kind").StringValue() != "application" {
		t.Fatalf("error kind: %s", childElement(root, "kind").StringValue())
	}
	if childElement(root, "rule").StringValue() != "bad" {
		t.Fatal("error rule attribution")
	}
	if childElement(root, "initialMessage") == nil {
		t.Fatal("initial message missing")
	}
	// The failing message is consumed (processed exactly once).
	msgs, _ := e.MessageStore().Messages("in")
	if !msgs[0].Processed {
		t.Fatal("failed message not consumed")
	}
}

func TestErrorHandlerRuleCompensates(t *testing.T) {
	// Fig. 10 pattern: a rule on the error queue reacts to failures.
	e := newEngine(t, `
		create queue in kind basic mode persistent;
		create queue errs kind basic mode persistent;
		create queue ops kind basic mode persistent;
		create queue out kind basic mode persistent;
		create rule bad for in errorqueue errs
		  if (//m) then do enqueue <x>{1 idiv 0}</x> into out;
		create rule notifyOps for errs
		  if (/error) then
		    do enqueue <ticket>{/error/description/text()}</ticket> into ops;
	`, nil)
	e.EnqueueXML("in", `<m/>`, nil)
	drain(t, e)
	got := queueBodies(t, e, "ops")
	if len(got) != 1 || got[0] != "ticket" {
		t.Fatalf("compensation: %v", got)
	}
}

func TestSchedulerPriorities(t *testing.T) {
	// Single worker: the high-priority queue must be served first even
	// though the low-priority messages arrived earlier.
	// The workers start after the burst is in: a worker does not wait for
	// the log and would otherwise finish each low message before the next
	// enqueue's flush returns.
	e, err := New(Config{Dir: t.TempDir(), Workers: 1}, qdl.MustParse(`
		create queue low kind basic mode persistent priority 1;
		create queue high kind basic mode persistent priority 10;
		create queue outLow kind basic mode persistent;
		create queue outHigh kind basic mode persistent;
		create rule rl for low if (//m) then do enqueue <l/> into outLow;
		create rule rh for high if (//m) then do enqueue <h/> into outHigh;
	`))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 20; i++ {
		e.EnqueueXML("low", `<m/>`, nil)
	}
	e.EnqueueXML("high", `<m/>`, nil)
	e.Start()
	drain(t, e)
	// Both completed; order was observed by message IDs in out queues.
	outHigh, _ := e.MessageStore().Messages("outHigh")
	outLow, _ := e.MessageStore().Messages("outLow")
	if len(outHigh) != 1 || len(outLow) != 20 {
		t.Fatalf("outputs: %d %d", len(outHigh), len(outLow))
	}
	// The high output must have been produced before the last low outputs:
	// its ID is smaller than at least one low output's ID.
	later := 0
	for _, m := range outLow {
		if m.ID > outHigh[0].ID {
			later++
		}
	}
	if later == 0 {
		t.Fatal("high-priority message was processed last")
	}
}

func TestEchoQueueTimeout(t *testing.T) {
	e := newEngine(t, `
		create queue echoQueue kind echo mode persistent;
		create queue target kind basic mode persistent;
		create queue out kind basic mode persistent;
		create rule onTimeout for target
		  if (//remind) then do enqueue <notified/> into out;
	`, nil)
	_, err := e.EnqueueXML("echoQueue", `<remind/>`, map[string]xdm.Value{
		"timeout": xdm.NewInteger(30), // ms
		"target":  xdm.NewString("target"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not delivered yet.
	if got := queueBodies(t, e, "out"); len(got) != 0 {
		t.Fatal("echo fired too early")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(queueBodies(t, e, "out")) == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("echo message never delivered")
}

func TestRulesOnEchoQueuesRejected(t *testing.T) {
	app := qdl.MustParse(`
		create queue e kind echo mode persistent;
		create rule r for e if (//m) then do reset x key "1";
	`)
	if _, err := New(Config{Dir: t.TempDir()}, app); err == nil {
		t.Fatal("rules on echo queues must be rejected")
	}
}

func TestRestartResumesUnprocessed(t *testing.T) {
	dir := t.TempDir()
	app := qdl.MustParse(pingPongApp)
	e, err := New(Config{Dir: dir, Workers: 1}, app)
	if err != nil {
		t.Fatal(err)
	}
	// Engine NOT started: messages stay unprocessed.
	for i := 0; i < 5; i++ {
		if _, err := e.EnqueueXML("in", fmt.Sprintf(`<ping>%d</ping>`, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	e.MessageStore().PageStore().CrashForTest()

	e2, err := New(Config{Dir: dir, Workers: 2}, qdl.MustParse(pingPongApp))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	e2.Start()
	if !e2.Drain(10 * time.Second) {
		t.Fatal("drain after restart")
	}
	out, _ := e2.MessageStore().Messages("out")
	if len(out) != 5 {
		t.Fatalf("recovered processing: %d pongs", len(out))
	}
}

func TestSchemaValidationAtEnqueue(t *testing.T) {
	e := newEngine(t, `
		create queue in kind basic mode persistent
		  schema "<xs:schema xmlns:xs=""http://www.w3.org/2001/XMLSchema"">
		            <xs:element name=""order"">
		              <xs:complexType>
		                <xs:sequence>
		                  <xs:element name=""id"" type=""xs:integer""/>
		                </xs:sequence>
		              </xs:complexType>
		            </xs:element>
		          </xs:schema>";
	`, nil)
	if _, err := e.EnqueueXML("in", `<order><id>42</id></order>`, nil); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	if _, err := e.EnqueueXML("in", `<order><id>nan</id></order>`, nil); err == nil {
		t.Fatal("invalid typed content accepted")
	}
	if _, err := e.EnqueueXML("in", `<other/>`, nil); err == nil {
		t.Fatal("undeclared root accepted")
	}
}

// TestLockNameMap pins the one map from the lock a site asks for to the lock
// taken under each granularity.
func TestLockNameMap(t *testing.T) {
	for _, c := range []struct {
		g    LockGranularity
		req  lockReq
		res  string
		mode locks.Mode
	}{
		{LockSlice, sliceLock("byKey", "k1", locks.S), "sl/byKey/k1", locks.S},
		{LockSlice, messageLock("in", 1234), "m/1234", locks.X},
		{LockSlice, queueLock("in", locks.IX), "q/in", locks.IX},
		{LockSlice, queueLock("in", locks.S), "q/in", locks.S},
		{LockQueue, sliceLock("byKey", "k1", locks.S), "sl/byKey", locks.S},
		{LockQueue, messageLock("in", 1234), "q/in", locks.X},
		{LockQueue, queueLock("in", locks.IX), "q/in", locks.X},
		{LockQueue, queueLock("in", locks.S), "q/in", locks.S},
	} {
		e := &Engine{cfg: Config{Granularity: c.g}}
		if res, mode := e.lockName(c.req); res != c.res || mode != c.mode {
			t.Errorf("granularity %d: %+v takes %s %v, want %s %v", c.g, c.req, res, mode, c.res, c.mode)
		}
	}
}

// TestAcquireMergesModes: two requests for one resource in one round take it
// in the weakest mode at least as strong as both — IX and S make X, which
// holds up another transaction's IS until it is released.
func TestAcquireMergesModes(t *testing.T) {
	e := &Engine{lm: locks.NewLockManager()}
	if err := e.acquire(1, queueLock("in", locks.IX), queueLock("in", locks.S)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- e.lm.Acquire(2, "q/in", locks.IS) }()
	waitFor(t, 10*time.Second, func() bool { w, _ := e.lm.Stats(); return w > 0 })
	e.lm.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentProcessingBothGranularities(t *testing.T) {
	for _, g := range []LockGranularity{LockSlice, LockQueue} {
		g := g
		t.Run(fmt.Sprintf("granularity=%d", g), func(t *testing.T) {
			e := newEngine(t, `
				create queue in kind basic mode persistent;
				create queue out kind basic mode persistent;
				create property k as xs:string fixed queue in value //k;
				create slicing byK on k;
				create rule fwd for in
				  if (//m) then do enqueue <done/> into out;
			`, func(c *Config) { c.Workers = 8; c.Granularity = g })
			const n = 200
			for i := 0; i < n; i++ {
				e.EnqueueXML("in", fmt.Sprintf(`<m><k>k%d</k></m>`, i%10), nil)
			}
			drain(t, e)
			out, _ := e.MessageStore().Messages("out")
			if len(out) != n {
				t.Fatalf("outputs: %d, want %d (lost or duplicated work)", len(out), n)
			}
		})
	}
}

// TestProcurementEndToEnd runs the paper's complete case study (Figs. 3-10):
// a customer offer request forks into three checks, the slicing joins the
// results, and an offer is sent to the customer; a request with restricted
// items is refused.
func TestProcurementEndToEnd(t *testing.T) {
	e := newEngine(t, qdl.ProcurementApp, nil)

	// Master data the join rule consults.
	if err := e.MessageStore().AddToCollection("crm", mustDoc(t, `<pricelist><discount>3%</discount></pricelist>`)); err != nil {
		t.Fatal(err)
	}

	// Request 1: clean order → offer.
	e.EnqueueXML("crm", `
		<offerRequest>
		  <requestID>r1</requestID>
		  <customerID>77</customerID>
		  <items><item sku="A1" restricted="no"><qty>10</qty></item></items>
		</offerRequest>`, nil)
	drain(t, e)
	got := queueBodies(t, e, "customer")
	if len(got) != 1 || got[0] != "offer" {
		t.Fatalf("customer queue after r1: %v", got)
	}

	// Request 2: restricted item → refusal.
	e.EnqueueXML("crm", `
		<offerRequest>
		  <requestID>r2</requestID>
		  <customerID>78</customerID>
		  <items><item sku="U235" restricted="yes"><qty>1</qty></item></items>
		</offerRequest>`, nil)
	drain(t, e)
	got = queueBodies(t, e, "customer")
	if len(got) != 2 || got[1] != "refusal" {
		t.Fatalf("customer queue after r2: %v", got)
	}

	// Request 3: customer with an unpaid invoice → refusal (Fig. 6).
	e.EnqueueXML("invoices", `<invoice><customerID>99</customerID><amount>1000</amount></invoice>`, nil)
	drain(t, e)
	e.EnqueueXML("crm", `
		<offerRequest>
		  <requestID>r3</requestID>
		  <customerID>99</customerID>
		  <items><item sku="A1" restricted="no"><qty>1</qty></item></items>
		</offerRequest>`, nil)
	drain(t, e)
	got = queueBodies(t, e, "customer")
	if len(got) != 3 || got[2] != "refusal" {
		t.Fatalf("customer queue after r3: %v", got)
	}

	// Request 4: capacity exceeded → refusal.
	e.EnqueueXML("crm", `
		<offerRequest>
		  <requestID>r4</requestID>
		  <customerID>11</customerID>
		  <items><item sku="A1" restricted="no"><qty>5000</qty></item></items>
		</offerRequest>`, nil)
	drain(t, e)
	got = queueBodies(t, e, "customer")
	if len(got) != 4 || got[3] != "refusal" {
		t.Fatalf("customer queue after r4: %v", got)
	}

	// Completed requests were reset (Fig. 8): slices are empty, GC reclaims
	// the correlated messages.
	for _, key := range []string{"r1", "r2", "r4"} {
		if n := len(e.Slices().SliceMembers("requestMsgs", key)); n != 0 {
			t.Fatalf("slice %s not reset: %d members", key, n)
		}
	}
	if n, _ := e.CollectGarbage(); n == 0 {
		t.Fatal("nothing collected after resets")
	}
}

// TestFigure9PaymentReminder exercises the echo-queue reminder flow: an
// invoice timeout without payment confirmation produces a reminder.
func TestFigure9PaymentReminder(t *testing.T) {
	e := newEngine(t, qdl.ProcurementApp, nil)
	e.EnqueueXML("invoices", `<invoice><requestID>inv9</requestID><amount>250</amount></invoice>`, nil)
	// Register the timeout at the echo queue (as the paper's invoice rule
	// would when sending the invoice).
	_, err := e.EnqueueXML("echoQueue",
		`<timeoutNotification><requestID>inv9</requestID></timeoutNotification>`,
		map[string]xdm.Value{
			"timeout": xdm.NewInteger(20),
			"target":  xdm.NewString("finance"),
		})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		docs, _ := e.MessageStore().QueueDocs("customer")
		if len(docs) == 1 {
			if docs[0].Root().Name.Local != "reminder" {
				t.Fatalf("expected reminder, got %s", docs[0].Root().Name.Local)
			}
			if !strings.Contains(docs[0].StringValue(), "inv9") {
				t.Fatalf("reminder content: %s", docs[0].StringValue())
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("reminder never sent")
}

// TestFigure9PaymentConfirmedNoReminder: when payment arrived before the
// timeout, no reminder is sent and the retention slice is reset.
func TestFigure9PaymentConfirmedNoReminder(t *testing.T) {
	e := newEngine(t, qdl.ProcurementApp, nil)
	e.EnqueueXML("invoices", `<invoice><requestID>inv10</requestID><amount>99</amount></invoice>`, nil)
	e.EnqueueXML("finance", `<paymentConfirmation><requestID>inv10</requestID></paymentConfirmation>`, nil)
	drain(t, e)
	_, err := e.EnqueueXML("echoQueue",
		`<timeoutNotification><requestID>inv10</requestID></timeoutNotification>`,
		map[string]xdm.Value{
			"timeout": xdm.NewInteger(10),
			"target":  xdm.NewString("finance"),
		})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	drain(t, e)
	if got := queueBodies(t, e, "customer"); len(got) != 0 {
		t.Fatalf("unexpected reminder: %v", got)
	}
	// The invoiceRetention slice was reset by resetPayedInvoices.
	if n := len(e.Slices().SliceMembers("invoiceRetention", "inv10")); n != 0 {
		t.Fatalf("invoiceRetention not reset: %d", n)
	}
}

func mustDoc(t *testing.T, src string) *docNode {
	t.Helper()
	d, err := parseDoc(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
