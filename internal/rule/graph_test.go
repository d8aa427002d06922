package rule

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"demaq/internal/qdl"
)

// describe prints a program's dependency graph: per rule its edges, per
// queue the slicings a message joins, the rules it can run and whether a
// batch on the queue can conflict.
func describe(p *Program) string {
	var rules []*Rule
	for _, plans := range []map[string]*Plan{p.QueuePlans, p.SlicePlans} {
		for _, plan := range plans {
			rules = append(rules, plan.Rules...)
		}
	}
	slices.SortFunc(rules, func(a, b *Rule) int { return a.Order - b.Order })
	var b strings.Builder
	for _, r := range rules {
		fmt.Fprintf(&b, "rule %s for %s: reads %v enqueues %v resets %v\n", r.Name, r.Target, r.Reads, r.Enqueues, r.Resets)
	}
	for _, q := range slices.Sorted(maps.Keys(p.Queues)) {
		qn := p.Queues[q]
		var runs []string
		for _, r := range qn.Rules {
			runs = append(runs, r.Name)
		}
		fmt.Fprintf(&b, "queue %s: joins %v runs %v conflicts %v\n", q, qn.Joins, runs, qn.Conflicts)
	}
	return b.String()
}

// procurementGraph is the graph of qdl.ProcurementApp. Every queue whose
// rules reset a slice its messages belong to can conflict: crm and customer
// (cleanupRequest resets requestMsgs), finance and invoices
// (resetPayedInvoices resets invoiceRetention). The checks' queues enqueue
// into crm, whose slicings none of their rules read or reset.
const procurementGraph = `rule newOfferRequest for crm: reads [] enqueues [finance legal supplier] resets []
rule checkCreditRating for finance: reads [invoices] enqueues [crm] resets []
rule checkExportRestrictions for legal: reads [] enqueues [crm] resets []
rule checkPlantCapacity for supplier: reads [] enqueues [crm] resets []
rule joinOrder for requestMsgs: reads [crm] enqueues [customer] resets []
rule cleanupRequest for requestMsgs: reads [] enqueues [] resets [requestMsgs]
rule resetPayedInvoices for invoiceRetention: reads [] enqueues [] resets [invoiceRetention]
rule checkPayment for finance: reads [finance invoices] enqueues [customer] resets []
rule confirmOrder for crm: reads [] enqueues [customer] resets []
rule deadLink for crmErrors: reads [crm] enqueues [postalService] resets []
`

const procurementQueues = `queue crm: joins [requestMsgs retainOrders] runs [newOfferRequest joinOrder cleanupRequest confirmOrder] conflicts true
queue crmErrors: joins [] runs [deadLink] conflicts false
`

const procurementQueuesTail = `queue echoQueue: joins [] runs [] conflicts false
queue finance: joins [invoiceRetention] runs [checkCreditRating resetPayedInvoices checkPayment] conflicts true
queue invoices: joins [invoiceRetention] runs [resetPayedInvoices] conflicts true
queue legal: joins [] runs [checkExportRestrictions] conflicts false
queue postalService: joins [] runs [] conflicts false
queue supplier: joins [] runs [checkPlantCapacity] conflicts false
`

// forwardGraph is the graph of the http-forward and rm-paced shape: one
// rule that reads nothing shared and enqueues into a queue that joins no
// slicing.
const forwardGraph = `rule fwd for in: reads [] enqueues [out] resets []
queue benchErrors: joins [] runs [] conflicts false
queue in: joins [] runs [fwd] conflicts false
queue out: joins [] runs [] conflicts false
`

// TestGraphGolden pins the dependency graph of the paper's application, of
// the four bench workload shapes (bench/workloads.go), written inline, and
// of the read sets' two special cases.
func TestGraphGolden(t *testing.T) {
	for _, c := range []struct{ name, app, want string }{
		{"ProcurementApp", qdl.ProcurementApp,
			procurementGraph + procurementQueues +
				"queue customer: joins [requestMsgs] runs [joinOrder cleanupRequest] conflicts true\n" +
				procurementQueuesTail},
		{"http-forward", `
			create queue in kind incomingGateway mode persistent
			  interface node.wsdl port InPort
			  errorqueue benchErrors;
			create queue out kind outgoingGateway mode persistent
			  interface sink.wsdl port SinkPort
			  errorqueue benchErrors;
			create queue benchErrors kind basic mode persistent;
			create rule fwd for in errorqueue benchErrors
			  if (/job) then do enqueue <done>{/job/id}{/job/key}</done> into out;`,
			forwardGraph},
		{"rm-paced", `
			create queue in kind incomingGateway mode persistent
			  interface node.wsdl port InPort
			  using WS-ReliableMessaging policy rm.xml
			  errorqueue benchErrors;
			create queue out kind outgoingGateway mode persistent
			  interface sink.wsdl port SinkPort
			  using WS-ReliableMessaging policy rm.xml
			  errorqueue benchErrors;
			create queue benchErrors kind basic mode persistent;
			create rule fwd for in errorqueue benchErrors
			  if (/job) then do enqueue <done>{/job/id}{/job/key}</done> into out;`,
			forwardGraph},
		{"procurement", qdl.ProcurementApp + `
			create queue tapOut kind outgoingGateway mode persistent
			  interface sink.wsdl port SinkPort
			  errorqueue benchErrors;
			create queue benchErrors kind basic mode persistent;
			create rule tap for customer errorqueue benchErrors
			  if (/offer or /refusal) then
			    do enqueue <result>{/*/requestID}<kind>{local-name(/*)}</kind></result> into tapOut;`,
			procurementGraph +
				"rule tap for customer: reads [] enqueues [tapOut] resets []\n" +
				"queue benchErrors: joins [] runs [] conflicts false\n" +
				procurementQueues +
				"queue customer: joins [requestMsgs] runs [joinOrder cleanupRequest tap] conflicts true\n" +
				procurementQueuesTail +
				"queue tapOut: joins [] runs [] conflicts false\n"},
		// answer writes only out, which joins no slicing, and no rule resets
		// byCustomer: a check's batch cannot conflict.
		{"history-lookup", `
			create queue invoices kind basic mode persistent;
			create queue checks kind basic mode persistent;
			create queue out kind outgoingGateway mode persistent
			  interface sink.wsdl port SinkPort
			  errorqueue benchErrors;
			create queue benchErrors kind basic mode persistent;
			create property customerID as xs:string fixed
			  queue invoices, checks value //customerID;
			create slicing byCustomer on customerID;
			create rule answer for byCustomer errorqueue benchErrors
			  if (/creditCheck) then
			    do enqueue <creditResult>{/creditCheck/checkID}
			        <count>{count(qs:slice()[/invoice])}</count>
			        <sum>{sum(qs:slice()/invoice/amount)}</sum>
			      </creditResult> into out;`,
			`rule answer for byCustomer: reads [] enqueues [out] resets []
queue benchErrors: joins [] runs [] conflicts false
queue checks: joins [byCustomer] runs [answer] conflicts false
queue invoices: joins [byCustomer] runs [answer] conflicts false
queue out: joins [] runs [] conflicts false
`},
		// A computed qs:queue() argument reads every queue, and a slicing
		// rule's argument-less call the queues whose messages join its
		// slicing; look's read meets put's enqueue.
		{"read sets", `
			create queue a kind basic mode persistent;
			create queue b kind basic mode persistent;
			create queue c kind basic mode persistent;
			create property k as xs:string fixed queue a, b value //k;
			create slicing byK on k;
			create rule put for c do enqueue <x/> into a;
			create rule look for c
			  let $q := string(/look/@queue) return do enqueue <n>{count(qs:queue($q))}</n> into b;
			create rule mine for byK do enqueue <n>{count(qs:queue())}</n> into c;`,
			`rule put for c: reads [] enqueues [a] resets []
rule look for c: reads [a b c] enqueues [b] resets []
rule mine for byK: reads [a b] enqueues [c] resets []
queue a: joins [byK] runs [mine] conflicts false
queue b: joins [byK] runs [mine] conflicts false
queue c: joins [] runs [put look] conflicts true
`},
	} {
		t.Run(c.name, func(t *testing.T) {
			app, err := qdl.Parse(c.app)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(app, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := describe(prog); got != c.want {
				t.Errorf("graph:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}
