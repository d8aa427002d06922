package rule

import (
	"strings"
	"testing"

	"demaq/internal/qdl"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

const miniApp = `
create queue crm kind basic mode persistent;
create queue finance kind basic mode persistent;
create queue audit kind basic mode persistent;
create property requestID as xs:string fixed
  queue crm value //requestID;
create slicing reqs on requestID;
create rule r1 for crm
  if (//offerRequest) then do enqueue <a/> into finance;
create rule r2 for crm
  if (//payment) then do enqueue <b/> into finance;
create rule r3 for crm
  do enqueue <log>{qs:property("requestID")}</log> into audit;
create rule r4 for reqs
  if (qs:slice()[/done]) then do reset;
`

func TestCompileProgram(t *testing.T) {
	prog := MustCompile(miniApp, DefaultOptions())
	if len(prog.QueuePlans) != 3 || len(prog.SlicePlans) != 1 {
		t.Fatalf("plans: %d queue, %d slice", len(prog.QueuePlans), len(prog.SlicePlans))
	}
	crm := prog.QueuePlans["crm"]
	if len(crm.Rules) != 3 {
		t.Fatalf("crm rules: %d", len(crm.Rules))
	}
	if !prog.SlicePlans["reqs"].Rules[0].OnSlicing {
		t.Fatal("slice rule should be flagged")
	}
	if _, ok := prog.Properties.Def("requestID"); !ok {
		t.Fatal("property not deployed")
	}
}

func TestDispatchIndex(t *testing.T) {
	prog := MustCompile(miniApp, DefaultOptions())
	crm := prog.QueuePlans["crm"]
	// r1 triggers on offerRequest, r2 on payment, r3 always.
	doc := xmldom.MustParse(`<offerRequest><requestID>r</requestID></offerRequest>`)
	rules := crm.RulesFor(ElementNames(doc))
	if len(rules) != 2 || rules[0].Name != "r1" || rules[1].Name != "r3" {
		names := []string{}
		for _, r := range rules {
			names = append(names, r.Name)
		}
		t.Fatalf("dispatch selected: %v", names)
	}
	// Declaration order preserved.
	doc2 := xmldom.MustParse(`<all><offerRequest/><payment/></all>`)
	rules = crm.RulesFor(ElementNames(doc2))
	if len(rules) != 3 || rules[0].Name != "r1" || rules[1].Name != "r2" || rules[2].Name != "r3" {
		t.Fatalf("order: %v", rules)
	}
}

func TestDispatchDisabledEvaluatesAll(t *testing.T) {
	prog := MustCompile(miniApp, Options{Unoptimized: true})
	crm := prog.QueuePlans["crm"]
	doc := xmldom.MustParse(`<unrelated/>`)
	if got := len(crm.RulesFor(ElementNames(doc))); got != 3 {
		t.Fatalf("canonical plan must keep all rules: %d", got)
	}
}

func TestTriggerAnalysis(t *testing.T) {
	cases := map[string]string{
		`if (//offerRequest) then do enqueue <x/> into q`:                  "offerRequest",
		`if (/order/item) then do enqueue <x/> into q`:                     "order",
		`if (//a and //b) then do enqueue <x/> into q`:                     "a",
		`if (exists(//pay)) then do enqueue <x/> into q`:                   "pay",
		`if (//amount = 3) then do enqueue <x/> into q`:                    "amount",
		`if (//a) then do enqueue <x/> into q else do enqueue <y/> into q`: "", // else branch: must always run
		`if (qs:queue("z")[//a]) then do enqueue <x/> into q`:              "",
		`do enqueue <x/> into q`:                                           "",
		`if (not(//a)) then do enqueue <x/> into q`:                        "", // negation is not a presence condition
	}
	for src, want := range cases {
		e, err := xpath.ParseExprString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := analyzeTrigger(e); got != want {
			t.Errorf("trigger(%s) = %q, want %q", src, got, want)
		}
	}
}

func TestQsQueueDefaulting(t *testing.T) {
	prog := MustCompile(`
		create queue q kind basic mode persistent;
		create rule r for q
		  if (qs:queue()[//x]) then do enqueue <y/> into q;
	`, DefaultOptions())
	body := prog.QueuePlans["q"].Rules[0].Body.AST()
	found := false
	rewriteExpr(body, func(e xpath.Expr) xpath.Expr {
		if fc, ok := e.(*xpath.FuncCall); ok && fc.Prefix == "qs" && fc.Local == "queue" {
			if len(fc.Args) == 1 {
				if lit, ok := fc.Args[0].(*xpath.Literal); ok && lit.Value.S == "q" {
					found = true
				}
			}
		}
		return e
	})
	if !found {
		t.Fatal("qs:queue() not defaulted to the rule's queue")
	}
}

func TestFixedPropertyInlining(t *testing.T) {
	prog := MustCompile(`
		create queue crm kind basic mode persistent;
		create property requestID as xs:string fixed
		  queue crm value //requestID;
		create rule r for crm
		  do enqueue <log>{qs:property("requestID")}</log> into crm;
	`, DefaultOptions())
	body := prog.QueuePlans["crm"].Rules[0].Body.AST()
	stillThere := false
	rewriteExpr(body, func(e xpath.Expr) xpath.Expr {
		if fc, ok := e.(*xpath.FuncCall); ok && fc.Prefix == "qs" && fc.Local == "property" {
			stillThere = true
		}
		return e
	})
	if stillThere {
		t.Fatal("fixed string property should be inlined")
	}
	// With the optimization off the call survives.
	prog2 := MustCompile(`
		create queue crm kind basic mode persistent;
		create property requestID as xs:string fixed
		  queue crm value //requestID;
		create rule r for crm
		  do enqueue <log>{qs:property("requestID")}</log> into crm;
	`, Options{Unoptimized: true})
	still2 := false
	rewriteExpr(prog2.QueuePlans["crm"].Rules[0].Body.AST(), func(e xpath.Expr) xpath.Expr {
		if fc, ok := e.(*xpath.FuncCall); ok && fc.Prefix == "qs" && fc.Local == "property" {
			still2 = true
		}
		return e
	})
	if !still2 {
		t.Fatal("inlining should be off")
	}
	// Inside a predicate the focus is another document: //requestID there
	// would read it, so the call stays.
	prog3 := MustCompile(`
		create queue crm kind basic mode persistent;
		create property requestID as xs:string fixed
		  queue crm value //requestID;
		create rule r for crm
		  do enqueue <log>{count(qs:queue("crm")[//ref = qs:property("requestID")])}</log> into crm;
	`, DefaultOptions())
	still3 := false
	rewriteExpr(prog3.QueuePlans["crm"].Rules[0].Body.AST(), func(e xpath.Expr) xpath.Expr {
		if fc, ok := e.(*xpath.FuncCall); ok && fc.Prefix == "qs" && fc.Local == "property" {
			still3 = true
		}
		return e
	})
	if !still3 {
		t.Fatal("a property read inside a predicate was inlined")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		// rule targets unknown queue
		`create rule r for nowhere do enqueue <x/> into nowhere;`,
		// enqueue into unknown queue
		`create queue q kind basic mode persistent;
		 create rule r for q do enqueue <x/> into missing;`,
		// reset of an unknown slicing: its record could never be pruned,
		// and would dismiss members of a slicing a reload declares later
		`create queue q kind basic mode persistent;
		 create rule r for q do reset nosuch key "k";`,
		// qs:slice in a queue rule
		`create queue q kind basic mode persistent;
		 create rule r for q if (qs:slice()[/a]) then do enqueue <x/> into q;`,
		// slicing over unknown property
		`create queue q kind basic mode persistent;
		 create slicing s on nothing;`,
		// duplicate queue
		`create queue q kind basic mode persistent;
		 create queue q kind basic mode persistent;`,
		// property on unknown queue
		`create property p as xs:string queue ghost value //x;`,
		// unknown error queue on rule
		`create queue q kind basic mode persistent;
		 create rule r for q errorqueue ghost do enqueue <x/> into q;`,
	}
	for _, src := range bad {
		app, err := qdl.Parse(src)
		if err != nil {
			continue // parse-level rejection also acceptable
		}
		if _, err := Compile(app, DefaultOptions()); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
}

// TestSlicingOverSystemPropertyRejected: the message store indexes no
// "demaq:" property, and a slice is a range of that index — such a slicing
// would be silently empty, so the compiler refuses it by name.
func TestSlicingOverSystemPropertyRejected(t *testing.T) {
	app, err := qdl.Parse(`
		create queue q kind basic mode persistent;
		create property demaq:tag as xs:string queue q value //tag;
		create slicing byTag on demaq:tag;`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(app, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), `slicing "byTag"`) || !strings.Contains(err.Error(), "system property") {
		t.Fatalf("slicing over a demaq: property compiled: %v", err)
	}
}

const propPredApp = `
create queue orders kind basic mode persistent;
create queue eu kind basic mode persistent;
create queue us kind basic mode persistent;
create property region as xs:string queue orders value //region;
create property amount as xs:integer queue orders value //amount;
create rule euOrders for orders
  if (qs:property("region") = "eu" and //order) then do enqueue <eu/> into eu;
create rule usOrders for orders
  if ("us" = qs:property("region")) then do enqueue <us/> into us;
create rule bigOrders for orders
  if (qs:property("amount") = 100) then do enqueue <big/> into us;
create rule lateTest for orders
  if (//order and qs:property("region") = "eu") then do enqueue <late/> into eu;
`

func TestPropPredAnalysis(t *testing.T) {
	prog := MustCompile(propPredApp, DefaultOptions())
	rules := prog.QueuePlans["orders"].Rules
	byName := map[string]*Rule{}
	for _, r := range rules {
		byName[r.Name] = r
	}
	if got := byName["euOrders"].PropPreds; len(got) != 1 || got[0] != (PropPred{Name: "region", Value: "eu"}) {
		t.Fatalf("euOrders preds: %+v", got)
	}
	if got := byName["usOrders"].PropPreds; len(got) != 1 || got[0] != (PropPred{Name: "region", Value: "us"}) {
		t.Fatalf("usOrders preds (mirrored operands): %+v", got)
	}
	// Non-string property types never become prefilters: their general
	// comparison is not plain string equality.
	if got := byName["bigOrders"].PropPreds; len(got) != 0 {
		t.Fatalf("bigOrders must not carry preds: %+v", got)
	}
	// A property test that is not the leftmost conjunct is refused: an
	// earlier conjunct could raise a dynamic error that evaluation would
	// route to an error queue, so skipping is unsound.
	if got := byName["lateTest"].PropPreds; len(got) != 0 {
		t.Fatalf("non-leftmost property test must not carry preds: %+v", got)
	}
}

// TestPropPredSkipsInlinedProperties pins the soundness rule: a fixed
// string property that view merging rewrites into its defining
// expression must not become a prefilter — the inlined body re-evaluates
// the expression against the document and can error (e.g. string() over a
// multi-node match) where the materialized property map cannot, and
// skipping the rule would swallow that error-queue message.
func TestPropPredSkipsInlinedProperties(t *testing.T) {
	const app = `
		create queue orders kind basic mode persistent;
		create queue eu kind basic mode persistent;
		create property region as xs:string fixed queue orders value //region;
		create rule euOrders for orders
		  if (qs:property("region") = "eu") then do enqueue <eu/> into eu;
	`
	prog := MustCompile(app, DefaultOptions())
	if got := prog.QueuePlans["orders"].Rules[0].PropPreds; len(got) != 0 {
		t.Fatalf("inlined fixed property must not become a prefilter: %+v", got)
	}
	// A non-fixed property is never inlined: the runtime lookup agrees
	// with the property map, so the prefilter is sound and kept.
	prog2 := MustCompile(strings.Replace(app, " fixed ", " ", 1), DefaultOptions())
	if got := prog2.QueuePlans["orders"].Rules[0].PropPreds; len(got) != 1 {
		t.Fatalf("non-inlined property should carry a prefilter: %+v", got)
	}
}

func TestSelectPropertyPrefilter(t *testing.T) {
	prog := MustCompile(propPredApp, DefaultOptions())
	plan := prog.QueuePlans["orders"]
	doc := xmldom.MustParse(`<order><region>eu</region><amount>100</amount></order>`)
	names := func() map[string]bool { return ElementNames(doc) }

	sel := planNames(plan.Select(map[string]xdm.Value{"region": xdm.NewString("eu")}, names))
	if len(sel) != 3 || sel[0] != "euOrders" || sel[1] != "bigOrders" || sel[2] != "lateTest" {
		t.Fatalf("eu message selected %v", sel)
	}
	// A message without the property runs every rule: absence proves
	// nothing, only a present different value does.
	sel = planNames(plan.Select(map[string]xdm.Value{"amount": xdm.NewInteger(3)}, names))
	if len(sel) != 4 {
		t.Fatalf("propertyless message selected %v", sel)
	}
	// RulesFor (no property view) keeps the legacy behavior.
	if got := len(plan.RulesFor(ElementNames(doc))); got != 4 {
		t.Fatalf("RulesFor: %d", got)
	}
}

// TestSelectLazyNames asserts that plans without element triggers never
// compute the element-name set.
func TestSelectLazyNames(t *testing.T) {
	prog := MustCompile(`
		create queue q kind basic mode persistent;
		create rule r for q do enqueue <x/> into q;
	`, DefaultOptions())
	plan := prog.QueuePlans["q"]
	called := false
	sel := plan.Select(nil, func() map[string]bool { called = true; return nil })
	if called {
		t.Fatal("element names must not be computed without element triggers")
	}
	if len(sel) != 1 {
		t.Fatalf("selected %d rules", len(sel))
	}
}

// TestUnoptimizedPlansNoDispatch pins what Unoptimized means: no element
// triggers, no property prefilters, no index probes and no view merging —
// while the default options plan all four for the same application.
func TestUnoptimizedPlansNoDispatch(t *testing.T) {
	const app = miniApp + `
		create property channel as xs:string queue crm value //channel;
		create rule r5 for crm
		  if (qs:property("channel") = "web") then do enqueue <w/> into audit;
	`
	readsRequestID := func(r *Rule) bool {
		found := false
		rewriteExpr(r.Body.AST(), func(e xpath.Expr) xpath.Expr {
			if fc, ok := e.(*xpath.FuncCall); ok && fc.Prefix == "qs" && fc.Local == "property" {
				if lit, ok := fc.Args[0].(*xpath.Literal); ok && lit.Value.S == "requestID" {
					found = true
				}
			}
			return e
		})
		return found
	}

	unopt := MustCompile(app, Options{Unoptimized: true})
	for _, plans := range []map[string]*Plan{unopt.QueuePlans, unopt.SlicePlans} {
		for _, plan := range plans {
			if len(plan.IndexProbes()) != 0 {
				t.Errorf("unoptimized plan %q probes the index: %+v", plan.Target, plan.IndexProbes())
			}
			for _, r := range plan.Rules {
				if r.Trigger != "" || len(r.PropPreds) != 0 || r.Access != AccessScan {
					t.Errorf("unoptimized rule %s dispatches: trigger %q, preds %+v, access %v",
						r.Name, r.Trigger, r.PropPreds, r.Access)
				}
			}
		}
	}
	byName := map[string]*Rule{}
	for _, r := range unopt.QueuePlans["crm"].Rules {
		byName[r.Name] = r
	}
	if !readsRequestID(byName["r3"]) {
		t.Error("unoptimized r3 inlined the fixed property requestID")
	}

	opt := MustCompile(app, DefaultOptions())
	crm := opt.QueuePlans["crm"]
	for _, r := range crm.Rules {
		byName[r.Name] = r
	}
	if byName["r1"].Trigger != "offerRequest" || byName["r2"].Trigger != "payment" {
		t.Errorf("default triggers: r1 %q, r2 %q", byName["r1"].Trigger, byName["r2"].Trigger)
	}
	if readsRequestID(byName["r3"]) {
		t.Error("default r3 still reads requestID through qs:property: not view-merged")
	}
	if got := byName["r5"].PropPreds; len(got) != 1 || got[0] != (PropPred{Name: "channel", Value: "web"}) {
		t.Errorf("default r5 prefilter: %+v", got)
	}
	if got := crm.IndexProbes(); len(got) != 1 || got[0] != (IndexProbe{Rule: 3, Name: "channel", Value: "web"}) {
		t.Errorf("default crm probes: %+v", got)
	}
}

func planNames(rules []*Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name
	}
	return out
}

func TestCompileProcurement(t *testing.T) {
	prog := MustCompile(qdl.ProcurementApp, DefaultOptions())
	if len(prog.QueuePlans["crm"].Rules) != 2 { // newOfferRequest, confirmOrder
		t.Fatalf("crm rules: %d", len(prog.QueuePlans["crm"].Rules))
	}
	if len(prog.SlicePlans["requestMsgs"].Rules) != 2 { // joinOrder, cleanupRequest
		t.Fatalf("requestMsgs rules: %d", len(prog.SlicePlans["requestMsgs"].Rules))
	}
	// newOfferRequest is dispatchable on offerRequest.
	var newOffer *Rule
	for _, r := range prog.QueuePlans["crm"].Rules {
		if r.Name == "newOfferRequest" {
			newOffer = r
		}
	}
	if newOffer == nil || newOffer.Trigger != "offerRequest" {
		t.Fatalf("newOfferRequest trigger: %+v", newOffer)
	}
}
