package rule

import (
	"reflect"
	"testing"

	"demaq/internal/qdl"
)

// ruleByName finds a rule in any plan of prog.
func ruleByName(t *testing.T, prog *Program, name string) *Rule {
	t.Helper()
	for _, plans := range []map[string]*Plan{prog.QueuePlans, prog.SlicePlans} {
		for _, plan := range plans {
			for _, r := range plan.Rules {
				if r.Name == name {
					return r
				}
			}
		}
	}
	t.Fatalf("no rule %q", name)
	return nil
}

// TestProcurementQueueReads pins which of the paper's qs:queue() reads
// become property-index probes: joinOrder's (a slicing rule, let form) and
// checkPayment's invoice lookup (direct form), but not checkCreditRating's
// (invoices has no customerID property), checkPayment's payment scan (its
// first predicate is no comparison) or deadLink's (orderID is neither fixed
// nor a string). Unoptimized plans none.
func TestProcurementQueueReads(t *testing.T) {
	want := map[string][]QueueRead{
		"joinOrder":         {{Queue: "crm", Probe: "requestID"}},
		"checkPayment":      {{Queue: "finance"}, {Queue: "invoices", Probe: "messageRequestID"}},
		"checkCreditRating": {{Queue: "invoices"}},
		"deadLink":          {{Queue: "crm"}},
		"newOfferRequest":   nil,
	}
	prog := MustCompile(qdl.ProcurementApp, DefaultOptions())
	for name, reads := range want {
		if got := ruleByName(t, prog, name).QueueReads; !reflect.DeepEqual(got, reads) {
			t.Errorf("%s: queue reads %+v, want %+v", name, got, reads)
		}
	}
	unopt := MustCompile(qdl.ProcurementApp, Options{Unoptimized: true})
	for name := range want {
		for _, r := range ruleByName(t, unopt, name).QueueReads {
			if r.Probe != "" {
				t.Errorf("unoptimized %s probes %+v", name, r)
			}
		}
	}
}

// TestQueueReadProbeConditions covers the planner's soundness conditions
// one by one: each rule below breaks one of them, except the four the test
// lists as probed. A let chain lowers the key at the read, in the first
// let: the key's variables must be bound there as they are at the filter.
func TestQueueReadProbeConditions(t *testing.T) {
	const app = `
create queue q kind basic mode persistent;
create queue inv kind basic mode persistent;
create queue out kind basic mode persistent;
create property key as xs:string fixed queue inv value //key;
create property loose as xs:string queue inv value //loose;
create property deep as xs:string fixed queue inv value //a/deep;
create rule direct for q
  if (//m) then do enqueue <r>{qs:queue("inv")[//key = string(qs:message()//k)]}</r> into out;
create rule steps for q
  if (//m) then do enqueue <r>{qs:queue("inv")/doc/item[key = qs:message()//k]}</r> into out;
create rule letOnce for q
  if (//m) then
    let $k := string(//k)
    let $docs := qs:queue("inv")/doc
    return do enqueue <r>{$docs[.//key = $k]}</r> into out;
create rule letTwice for q
  if (//m) then
    let $docs := qs:queue("inv")/doc
    return do enqueue <r>{$docs[.//key = "x"]}{count($docs)}</r> into out;
create rule letKeyBoundLater for q
  if (//m) then
    let $docs := qs:queue("inv")
    let $k := string(//k)
    return do enqueue <r>{$docs[//key = $k]}</r> into out;
create rule letChain for q
  if (//m) then
    let $k := string(//k)
    let $docs := qs:queue("inv")
    let $d := $docs/doc
    return do enqueue <r>{$d[.//key = $k]}</r> into out;
create rule letChainKeyBoundLater for q
  if (//m) then
    let $docs := qs:queue("inv")
    let $k := string(//k)
    let $d := $docs
    return do enqueue <r>{$d[//key = $k]}</r> into out;
create rule letChainShadowed for q
  if (//m) then
    let $k := "x"
    let $docs := qs:queue("inv")
    let $k := string(//k)
    let $d := $docs
    return do enqueue <r>{$d[//key = $k]}</r> into out;
create rule focusKey for q
  if (//m) then do enqueue <r>{qs:queue("inv")[//key = string(.)]}</r> into out;
create rule notFirstPred for q
  if (//m) then do enqueue <r>{qs:queue("inv")[1][//key = "x"]}</r> into out;
create rule attribute for q
  if (//m) then do enqueue <r>{qs:queue("inv")[//@key = "x"]}</r> into out;
create rule notFixed for q
  if (//m) then do enqueue <r>{qs:queue("inv")[//loose = "x"]}</r> into out;
create rule notDescendant for q
  if (//m) then do enqueue <r>{qs:queue("inv")[//deep = "x"]}</r> into out;
create rule notEquality for q
  if (//m) then do enqueue <r>{qs:queue("inv")[//key != "x"]}</r> into out;
create rule predInPath for q
  if (//m) then do enqueue <r>{qs:queue("inv")/doc[1]/item[key = "x"]}</r> into out;
`
	prog := MustCompile(app, DefaultOptions())
	probed := map[string]bool{"direct": true, "steps": true, "letOnce": true, "letChain": true}
	for _, r := range prog.QueuePlans["q"].Rules {
		if len(r.QueueReads) != 1 {
			t.Fatalf("%s: queue reads %+v", r.Name, r.QueueReads)
		}
		got := r.QueueReads[0]
		want := QueueRead{Queue: "inv"}
		if probed[r.Name] {
			want.Probe = "key"
		}
		if got != want {
			t.Errorf("%s: queue read %+v, want %+v", r.Name, got, want)
		}
	}
}
