package xquery_test

import (
	"fmt"
	"testing"
	"time"

	"demaq/internal/qdl"
	"demaq/internal/rule"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// routingApp is the engine's dispatch differential app with a fixed
// (view-merged) region property, a boundary comparison and a poison rule,
// beside a slice join.
const routingApp = `
	create queue inbox kind basic mode persistent;
	create queue eu kind basic mode persistent;
	create queue us kind basic mode persistent;
	create queue joined kind basic mode persistent;
	create queue errs kind basic mode persistent;
	create property region as xs:string fixed queue inbox value //region;
	create property reqID as xs:string queue inbox value //rid;
	create slicing requests on reqID;
	create rule euRoute for inbox
	  if (qs:property("region") = "eu") then do enqueue <eu>{//id/text()}</eu> into eu;
	create rule usRoute for inbox
	  if (qs:property("region") = "us") then do enqueue <us>{//id/text()}</us> into us;
	create rule small for inbox
	  if (//amount <= 100) then do enqueue <small>{//id/text()}</small> into eu;
	create rule poison for inbox errorqueue errs
	  if (//order/poison) then do enqueue <x>{1 idiv 0}</x> into eu;
	create rule joinReq for requests
	  if (count(qs:slice()[/order/last]) > 0) then
	    do enqueue <joined>{qs:slicekey()}<n>{count(qs:slice())}</n></joined> into joined;
`

// sampleDocs drive the rules of both apps down their firing, non-firing
// and error paths.
var sampleDocs = []string{
	`<offerRequest><requestID>r1</requestID><customerID>23</customerID>
	   <items><item sku="A1" restricted="yes"><qty>2</qty></item><item sku="B2"><qty>5</qty></item></items></offerRequest>`,
	`<requestCustomerInfo><requestID>r1</requestID><customerID>23</customerID></requestCustomerInfo>`,
	`<exportRestrictionsInfo><requestID>r1</requestID>
	   <items><item sku="A1" restricted="yes"/><item sku="B2" restricted="no"/></items></exportRestrictionsInfo>`,
	`<plantCapacityInfo><requestID>r1</requestID><items><item><qty>999</qty></item><item><qty>1</qty></item></items></plantCapacityInfo>`,
	`<customerInfoResult><requestID>r1</requestID><accept/></customerInfoResult>`,
	`<restrictionsResult><requestID>r1</requestID></restrictionsResult>`,
	`<capacityResult><requestID>r1</requestID><accept/></capacityResult>`,
	`<invoice><requestID>r1</requestID><customerID>23</customerID><amount>100</amount></invoice>`,
	`<timeoutNotification><requestID>r1</requestID></timeoutNotification>`,
	`<paymentConfirmation><requestID>r2</requestID></paymentConfirmation>`,
	`<customerOrder><orderID>7</orderID><address>Main St</address></customerOrder>`,
	`<error><disconnectedTransport/><initialMessage><customerOrder><orderID>7</orderID></customerOrder></initialMessage></error>`,
	`<offer><requestID>r1</requestID></offer>`,
	`<order><id>1</id><region>eu</region><rid>r1</rid><amount>100</amount></order>`,
	`<order><id>2</id><region>us</region><rid>r1</rid><amount>101</amount><poison/><last/></order>`,
	`<order><id>3</id><region>eu</region><region>us</region><rid>r2</rid></order>`,
	`<unrelated/>`,
}

// sampleRuntime serves every queue and slice from the sample documents.
type sampleRuntime struct {
	msg   *xmldom.Node
	docs  []*xmldom.Node
	slice []*xmldom.Node
	props map[string]xdm.Value
	crm   *xmldom.Node // the crm master-data collection
}

func (r *sampleRuntime) Message() (*xmldom.Node, error) { return r.msg, nil }
func (r *sampleRuntime) Queue(string) ([]*xmldom.Node, error) {
	return r.docs, nil
}
func (r *sampleRuntime) Property(name string) (xdm.Value, error) {
	v, ok := r.props[name]
	if !ok {
		return xdm.Value{}, fmt.Errorf("message has no property %q", name)
	}
	return v, nil
}
func (r *sampleRuntime) Slice() ([]*xmldom.Node, error) { return r.slice, nil }
func (r *sampleRuntime) SliceKey() (xdm.Value, error)   { return xdm.NewString("r1"), nil }
func (r *sampleRuntime) Collection(name string) ([]*xmldom.Node, error) {
	if name == "crm" {
		return []*xmldom.Node{r.crm}, nil
	}
	return nil, nil
}
func (r *sampleRuntime) Now() time.Time { return time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC) }

// TestRuleBodiesDifferential evaluates every rule body and property
// expression of real applications — the paper's procurement case study and
// a routing app with view merging and a slice join — on the program and on
// the reference interpreter, under both rule-compiler settings, and
// requires the same results, updates and error codes. The engine's
// TestRuleOptimizationDifferential runs the program on both of its sides,
// so this is where real rule bodies meet the reference.
func TestRuleBodiesDifferential(t *testing.T) {
	docs := make([]*xmldom.Node, len(sampleDocs))
	for i, src := range sampleDocs {
		docs[i] = xmldom.MustParse(src)
	}
	crm := xmldom.MustParse(`<pricelist><discount>5</discount></pricelist>`)
	// Two slices: the three check results alone (the join fires), and
	// every sample document (the join is already answered).
	slices := [][]*xmldom.Node{docs[4:7], docs}

	evals, updates, errs := 0, 0, 0
	for appName, src := range map[string]string{"procurement": qdl.ProcurementApp, "routing": routingApp} {
		for _, opts := range []rule.Options{{}, {Unoptimized: true}} {
			prog, err := rule.Compile(qdl.MustParse(src), opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", appName, opts, err)
			}
			var bodies []namedBody
			for _, plans := range []map[string]*rule.Plan{prog.QueuePlans, prog.SlicePlans} {
				for _, plan := range plans {
					for _, r := range plan.Rules {
						bodies = append(bodies, namedBody{"rule " + r.Name, r.Body})
					}
				}
			}
			for _, def := range prog.Properties.Defs() {
				for q, c := range def.PerQueue {
					bodies = append(bodies, namedBody{"property " + def.Name + " on " + q, c})
				}
			}
			for _, b := range bodies {
				for _, slice := range slices {
					for di, doc := range docs {
						rt := &sampleRuntime{msg: doc, docs: docs, slice: slice, crm: crm,
							props: map[string]xdm.Value{
								"region": xdm.NewString(firstText(doc, "region")),
								"reqID":  xdm.NewString(firstText(doc, "rid")),
							}}
						if mismatch := xquery.CompareBackends(b.body, rt, xquery.EvalOptions{ContextDoc: doc}); mismatch != "" {
							t.Errorf("%s %+v %s on sample %d: %s", appName, opts, b.name, di, mismatch)
						}
						evals++
						_, ups, err := xquery.Eval(b.body, rt, xquery.EvalOptions{ContextDoc: doc})
						switch {
						case err != nil:
							errs++
						case ups.Len() > 0:
							updates++
						}
					}
				}
			}
		}
	}
	// The comparison must not hold vacuously: rules have to fire and fail.
	if updates < 20 || errs == 0 {
		t.Fatalf("%d evaluations: %d produced updates, %d failed", evals, updates, errs)
	}
	t.Logf("%d evaluations: %d produced updates, %d failed", evals, updates, errs)
}

type namedBody struct {
	name string
	body *xquery.Compiled
}

// firstText returns the string value of the first element named local, or
// "" when there is none.
func firstText(n *xmldom.Node, local string) string {
	if n.Kind == xmldom.ElementNode && n.Name.Local == local {
		return n.StringValue()
	}
	for _, c := range n.Children {
		if s := firstText(c, local); s != "" {
			return s
		}
	}
	return ""
}
