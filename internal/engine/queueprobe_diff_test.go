package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/rule"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// queueProbeDiffApp is the paper's procurement application plus three
// audit rules. auditInvoice's probed qs:queue() read gets a numeric key at
// run time: the key compares as a number ("7.0" = 7), so the read must fall
// back to the whole queue. auditChain and auditShadowed filter a let
// variable bound to another let variable that holds the read; their keys
// are not bound at the read (auditShadowed's $k is, but to another value),
// so neither read may probe.
const queueProbeDiffApp = qdl.ProcurementApp + `
create queue audits kind basic mode persistent;
create rule auditInvoice for finance
  if (//audit) then
    do enqueue <audited>{qs:queue("invoices")[//requestID = number(qs:message()/audit/ref)]//amount}</audited>
      into audits;
create rule auditChain for finance
  if (//audit) then
    let $all := qs:queue("invoices")
    let $k := string(//audit/id)
    let $d := $all
    return do enqueue <chained>{$d[//requestID = $k]//amount}</chained> into audits;
create rule auditShadowed for finance
  if (//audit) then
    let $k := "inv5"
    let $all := qs:queue("invoices")
    let $k := string(//audit/id)
    let $d := $all/invoice
    return do enqueue <shadowed>{$d[requestID = $k]/amount}</shadowed> into audits;
`

// runQueueProbeDiff preloads a procurement workload, runs it to completion
// and returns the fingerprint of every queue. Everything is enqueued before
// the workers start, so the qs:queue() reads see the same queues on every
// run and both sides must end in identical state.
func runQueueProbeDiff(t *testing.T, run diffRun) (map[string][]string, Stats) {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), Workers: 8, Rules: rule.Options{Unoptimized: run.unoptimized}}
	cfg.Store = msgstore.DefaultOptions()
	cfg.Store.Store.SyncCommits = false
	cfg.Store.NoPropertyIndex = run.scan
	e, err := New(cfg, qdl.MustParse(queueProbeDiffApp))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if err := e.MessageStore().AddToCollection("crm", xmldom.MustParse(`<pricelist><discount>3%</discount></pricelist>`)); err != nil {
		t.Fatal(err)
	}
	enqueue := func(queue, doc string) {
		t.Helper()
		if _, err := e.EnqueueXML(queue, doc, nil); err != nil {
			t.Fatal(err)
		}
	}
	const n = 24
	for i := 0; i < n; i++ {
		enqueue("invoices", fmt.Sprintf(`<invoice><requestID>inv%d</requestID><customerID>u%d</customerID><amount>%d</amount></invoice>`, i, i%3, 100+i))
	}
	// Only the second requestID matches: the invoice's messageRequestID is
	// x1, and only its multi-valued marker makes a probe for inv2 find it.
	enqueue("invoices", `<invoice><requestID>x1</requestID><requestID>inv2</requestID><amount>5</amount></invoice>`)
	enqueue("invoices", `<invoice><requestID>7.0</requestID><amount>77</amount></invoice>`)
	for i := 0; i < n; i++ {
		customer, qty := fmt.Sprintf("c%d", i), 1+i
		switch i % 4 {
		case 1:
			customer = fmt.Sprintf("u%d", i%3) // unpaid invoices: refusal
		case 2:
			qty = 5000 // over capacity: refusal
		}
		enqueue("crm", fmt.Sprintf(`<offerRequest><requestID>r%d</requestID><customerID>%s</customerID><items><item sku="s%d" restricted="no"><qty>%d</qty></item></items></offerRequest>`, i, customer, i, qty))
	}
	// Only the second requestID matches r3: the request's requestID is
	// zz, and r3's join must still find its items.
	enqueue("crm", `<offerRequest><requestID>zz</requestID><requestID>r3</requestID><customerID>c99</customerID><items><item sku="extra" restricted="no"><qty>2</qty></item></items></offerRequest>`)
	for i := 0; i < n; i += 3 {
		if i%2 == 0 {
			enqueue("finance", fmt.Sprintf(`<paymentConfirmation><requestID>inv%d</requestID></paymentConfirmation>`, i))
		}
		enqueue("finance", fmt.Sprintf(`<timeoutNotification><requestID>inv%d</requestID></timeoutNotification>`, i))
	}
	enqueue("finance", `<audit><ref>7</ref><id>inv2</id></audit>`)
	e.Start()
	if !e.Drain(60 * time.Second) {
		t.Fatal("drain")
	}
	state := map[string][]string{}
	for _, q := range e.MessageStore().QueueNames() {
		state[q] = queueFingerprint(t, e, q)
	}
	return state, e.Stats()
}

// TestQueueProbeDifferential runs the procurement workload with
// index-probed qs:queue() reads against the Unoptimized plan, which reads
// whole queues, and against the same plan without a property index (every
// probe falls back): store state, error queues and counts must be
// identical. Runs under -race in CI.
func TestQueueProbeDifferential(t *testing.T) {
	want, wantStats := runQueueProbeDiff(t, diffRun{unoptimized: true})
	if wantStats.QueueReadsProbed != 0 {
		t.Fatalf("unoptimized run probed %d reads", wantStats.QueueReadsProbed)
	}
	// The workload must reach every path the probe changes.
	customer := strings.Join(want["customer"], "\n")
	for _, s := range []string{"<offer><requestID>r3</requestID>", "extra", "<reminder><requestID>inv3</requestID>", "<refusal>"} {
		if !strings.Contains(customer, s) {
			t.Fatalf("reference customer queue lacks %q:\n%s", s, customer)
		}
	}
	audits := strings.Join(want["audits"], "\n")
	for _, s := range []string{"<amount>77</amount>", "<chained><amount>102</amount><amount>5</amount>", "<shadowed><amount>102</amount><amount>5</amount>"} {
		if !strings.Contains(audits, s) {
			t.Fatalf("reference audits lack %q:\n%s", s, audits)
		}
	}
	for _, run := range []diffRun{{}, {scan: true}} {
		t.Run(fmt.Sprintf("scan=%v", run.scan), func(t *testing.T) {
			got, gotStats := runQueueProbeDiff(t, run)
			if run.scan && gotStats.QueueReadsProbed != 0 {
				t.Errorf("probed %d reads without an index", gotStats.QueueReadsProbed)
			}
			if !run.scan {
				// joinOrder's and checkPayment's reads probe; the audit's
				// numeric key, checkCreditRating and the payment scan read
				// whole queues.
				if gotStats.QueueReadsProbed == 0 || gotStats.QueueReadsScanned == 0 {
					t.Errorf("reads: %d probed, %d scanned", gotStats.QueueReadsProbed, gotStats.QueueReadsScanned)
				}
				if gotStats.QueueDocsScanned+gotStats.QueueDocsProbed >= wantStats.QueueDocsScanned {
					t.Errorf("probes fetched no fewer documents: %d+%d, reference %d",
						gotStats.QueueDocsProbed, gotStats.QueueDocsScanned, wantStats.QueueDocsScanned)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("queue sets differ: %d vs %d", len(got), len(want))
			}
			for q, wantMsgs := range want {
				gotMsgs := got[q]
				if len(gotMsgs) != len(wantMsgs) {
					t.Errorf("queue %q: %d messages, reference %d", q, len(gotMsgs), len(wantMsgs))
					continue
				}
				for i := range wantMsgs {
					if gotMsgs[i] != wantMsgs[i] {
						t.Errorf("queue %q message %d differs:\n  reference: %s\n  probed:    %s", q, i, wantMsgs[i], gotMsgs[i])
					}
				}
			}
			if gotStats.Processed != wantStats.Processed || gotStats.Errors != wantStats.Errors {
				t.Errorf("processed/errors: %d/%d, reference %d/%d", gotStats.Processed, gotStats.Errors, wantStats.Processed, wantStats.Errors)
			}
		})
	}
}

// TestQueueProbeFindsUnevaluatedErrors: an error message whose properties
// fail to evaluate (its integer property casts "a") is stored without its
// string property key, although its document holds <key>a</key>. It
// carries key's multi-valued marker instead, so a probed read of the error
// queue finds it as the whole-queue read does.
func TestQueueProbeFindsUnevaluatedErrors(t *testing.T) {
	const app = `
create queue in kind basic mode persistent errorqueue errs
  schema "<xs:schema xmlns:xs=""http://www.w3.org/2001/XMLSchema"">
            <xs:element name=""order""><xs:complexType><xs:sequence>
              <xs:element name=""id"" type=""xs:integer""/>
            </xs:sequence></xs:complexType></xs:element>
          </xs:schema>";
create queue errs kind basic mode persistent;
create queue look kind basic mode persistent;
create queue out kind basic mode persistent;
create property key as xs:string fixed queue errs value //key;
create property num as xs:integer fixed queue errs value //key;
create rule find for look
  if (//find) then do enqueue <n>{count(qs:queue("errs")[//key = string(qs:message()//find)])}</n> into out;
`
	for _, unopt := range []bool{false, true} {
		e := newEngine(t, app, func(c *Config) { c.Rules = rule.Options{Unoptimized: unopt}; c.Logger = quietLog })
		if _, err := e.gws.deliver("in", []byte(`<order><key>a</key></order>`), nil, nil); err == nil {
			t.Fatal("an invalid order was accepted")
		}
		e.EnqueueXML("look", `<find>a</find>`, nil)
		drain(t, e)
		if got := queueFingerprint(t, e, "out"); len(got) != 1 || !strings.Contains(got[0], "<n>1</n>") {
			t.Errorf("unoptimized=%v: %v", unopt, got)
		}
		if probed := e.Stats().QueueReadsProbed; (probed == 0) == !unopt {
			t.Errorf("unoptimized=%v: %d probed reads", unopt, probed)
		}
	}
}

// TestQueueProbeReadsMessagesBelowFloor pins the probe floor: a message
// stored before the engine opened carries properties an older build or
// application computed — here a request with two requestIDs and no
// multi-valued marker — and a probed read must still find it.
func TestQueueProbeReadsMessagesBelowFloor(t *testing.T) {
	dir := t.TempDir()
	ms, err := msgstore.Open(dir, msgstore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateQueue("crm", msgstore.Persistent, 0); err != nil {
		t.Fatal(err)
	}
	tx := ms.Begin()
	old := xmldom.MustParse(`<offerRequest><requestID>zz</requestID><requestID>r1</requestID><customerID>c2</customerID><items><item sku="old" restricted="no"><qty>1</qty></item></items></offerRequest>`)
	if err := tx.Enqueue("crm", old, map[string]xdm.Value{"requestID": xdm.NewString("zz")}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, qdl.ProcurementApp, func(c *Config) { c.Dir = dir })
	if err := e.MessageStore().AddToCollection("crm", xmldom.MustParse(`<pricelist><discount>3%</discount></pricelist>`)); err != nil {
		t.Fatal(err)
	}
	e.EnqueueXML("crm", `<offerRequest><requestID>r1</requestID><customerID>c1</customerID><items><item sku="new" restricted="no"><qty>1</qty></item></items></offerRequest>`, nil)
	drain(t, e)
	if st := e.Stats(); st.QueueReadsProbed == 0 {
		t.Fatalf("no probed read: %+v", st)
	}
	docs, err := e.MessageStore().QueueDocs("customer")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		s := xmldom.Serialize(d)
		if strings.Contains(s, "<requestID>r1</requestID>") {
			if !strings.Contains(s, `sku="old"`) || !strings.Contains(s, `sku="new"`) {
				t.Fatalf("r1's offer misses an offer request: %s", s)
			}
			return
		}
	}
	t.Fatalf("no offer for r1 in %d customer messages", len(docs))
}

// TestFixedPropertyInPredicate: qs:property() of a fixed property inside a
// predicate reads the message's property, not the defining expression
// evaluated against the predicate's focus, in optimized plans too.
func TestFixedPropertyInPredicate(t *testing.T) {
	const app = `
create queue q kind basic mode persistent;
create queue inv kind basic mode persistent;
create queue out kind basic mode persistent;
create property p as xs:string fixed queue q value //k;
create rule r for q
  if (//m) then do enqueue <n>{count(qs:queue("inv")[//key = qs:property("p")])}</n> into out;
`
	for _, unopt := range []bool{false, true} {
		e := newEngine(t, app, func(c *Config) { c.Rules = rule.Options{Unoptimized: unopt} })
		e.EnqueueXML("inv", `<d><key>a</key><k>zz</k></d>`, nil)
		drain(t, e)
		e.EnqueueXML("q", `<m><k>a</k></m>`, nil)
		drain(t, e)
		if got := queueFingerprint(t, e, "out"); len(got) != 1 || !strings.Contains(got[0], "<n>1</n>") {
			t.Errorf("unoptimized=%v: %v", unopt, got)
		}
	}
}
