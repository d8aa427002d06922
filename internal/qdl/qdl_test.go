package qdl

import (
	"errors"
	"testing"

	"demaq/internal/xdm"
	"demaq/internal/xpath"
)

func TestParseQueueDecls(t *testing.T) {
	app := MustParse(`
		create queue finance kind basic mode persistent;
		create queue scratch kind basic mode transient priority 5;
		create queue echoQueue kind echo mode persistent;
	`)
	if len(app.Queues) != 3 {
		t.Fatalf("queues: %d", len(app.Queues))
	}
	q := app.Queues[0]
	if q.Name != "finance" || q.Kind != KindBasic || !q.Persistent {
		t.Fatalf("finance: %+v", q)
	}
	if app.Queues[1].Persistent || app.Queues[1].Priority != 5 {
		t.Fatalf("scratch: %+v", app.Queues[1])
	}
	if app.Queues[2].Kind != KindEcho {
		t.Fatalf("echo: %+v", app.Queues[2])
	}
}

func TestParseGatewayDecl(t *testing.T) {
	// Paper Sec. 2.1.2 verbatim (plus terminator).
	app := MustParse(`
		create queue supplier kind outgoingGateway mode persistent
		  interface supplier.wsdl port CapacityRequestPort
		  using WS-ReliableMessaging policy wsrmpol.xml
		  using WS-Security policy wssecpol.xml;
	`)
	q := app.Queues[0]
	if q.Kind != KindOutgoingGateway || q.Interface != "supplier.wsdl" || q.Port != "CapacityRequestPort" {
		t.Fatalf("gateway: %+v", q)
	}
	if len(q.Policies) != 2 || q.Policies[0].Name != "WS-ReliableMessaging" || q.Policies[1].File != "wssecpol.xml" {
		t.Fatalf("policies: %+v", q.Policies)
	}
}

func TestReliableMessagingRequiresPersistence(t *testing.T) {
	// Paper Sec. 2.1.2: "in order to use the reliable messaging extensions
	// ... the created queue must be persistent".
	_, err := Parse(`create queue s kind outgoingGateway mode transient
		using WS-ReliableMessaging policy p.xml;`)
	if err == nil {
		t.Fatal("transient reliable gateway must be rejected")
	}
}

func TestParsePropertyDecls(t *testing.T) {
	// Both Sec. 2.2 examples.
	app := MustParse(`
		create property isVIPorder as xs:boolean inherited
		  queue crm, finance, legal, customer value false;
		create property orderID as xs:string fixed
		  queue order value //orderID
		  queue confirmation value /confirmedOrder/ID;
	`)
	if len(app.Properties) != 2 {
		t.Fatalf("properties: %d", len(app.Properties))
	}
	vip := app.Properties[0]
	if !vip.Inherited || vip.Fixed || vip.Type != xdm.TypeBoolean {
		t.Fatalf("vip flags: %+v", vip)
	}
	if len(vip.Bindings) != 1 || len(vip.Bindings[0].Queues) != 4 {
		t.Fatalf("vip bindings: %+v", vip.Bindings)
	}
	// "value false" is a boolean literal, not a path.
	if lit, ok := vip.Bindings[0].Value.(*xpath.Literal); !ok || lit.Value.B {
		t.Fatalf("vip default: %#v", vip.Bindings[0].Value)
	}
	oid := app.Properties[1]
	if !oid.Fixed || oid.Inherited || len(oid.Bindings) != 2 {
		t.Fatalf("orderID: %+v", oid)
	}
	if _, ok := oid.Bindings[0].Value.(*xpath.PathExpr); !ok {
		t.Fatal("orderID value should be a path")
	}
}

func TestParseSlicingAndRule(t *testing.T) {
	app := MustParse(`
		create slicing orders on orderID;
		create rule cleanupRequest for requestMsgs
		  if (qs:slice()/offer or qs:slice()/refusal) then do reset;
		create rule confirmOrder for crm errorqueue crmErrors
		  if (//customerOrder) then
		    do enqueue <confirmation>{//orderID}</confirmation> into customer;
	`)
	if len(app.Slicings) != 1 || app.Slicings[0].Property != "orderID" {
		t.Fatalf("slicing: %+v", app.Slicings)
	}
	if len(app.Rules) != 2 {
		t.Fatalf("rules: %d", len(app.Rules))
	}
	r := app.Rules[0]
	if r.Name != "cleanupRequest" || r.Target != "requestMsgs" || r.ErrorQueue != "" {
		t.Fatalf("rule 1: %+v", r)
	}
	if app.Rules[1].ErrorQueue != "crmErrors" {
		t.Fatalf("rule 2 errorqueue: %+v", app.Rules[1])
	}
	if _, ok := app.Rules[1].Body.(*xpath.IfExpr); !ok {
		t.Fatal("rule body should be a conditional")
	}
}

func TestParseCollections(t *testing.T) {
	app := MustParse(`create collection crm;`)
	if len(app.Collections) != 1 || app.Collections[0].Name != "crm" {
		t.Fatalf("collections: %+v", app.Collections)
	}
}

func TestParseComments(t *testing.T) {
	app := MustParse(`
		(: the finance queue :)
		create queue finance kind basic mode persistent; (: trailing :)
	`)
	if len(app.Queues) != 1 {
		t.Fatal("comments")
	}
}

func TestParseErrorsQDL(t *testing.T) {
	bad := []string{
		`create widget x;`,
		`create queue q;`, // missing kind/mode
		`create queue q kind basic;`,
		`create queue q kind wrong mode persistent;`,
		`create queue q kind basic mode sometimes;`,
		`create property p as xs:string;`, // no bindings
		`create property p as no:such queue q value 1;`,
		`create slicing s;`,
		`create rule r for q`, // missing body
		`create queue a kind basic mode persistent create queue b kind basic mode persistent;`, // missing ';'
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// A lexical error right after a keyword is reported as such; the
	// keyword is not read as its own value.
	lexBad := []string{
		`create queue q kind basic mode persistent interface #;`,
		`create queue q kind basic mode persistent errorqueue #;`,
		`create queue q kind basic mode persistent interface "a" port #;`,
		`create queue q kind "unterminated`,
	}
	for _, src := range lexBad {
		var se *xpath.SyntaxError
		if _, err := Parse(src); !errors.As(err, &se) {
			t.Errorf("%q: want the lexer's syntax error, got %v", src, err)
		}
	}
}

// TestParsePaperApplication parses a full transcription of the paper's
// procurement scenario statements (Figs. 5-10 with the elided parts filled
// in), which is also the application the procurement example runs.
func TestParsePaperApplication(t *testing.T) {
	app, err := Parse(ProcurementApp)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Queues) < 8 || len(app.Rules) < 6 || len(app.Slicings) < 2 {
		t.Fatalf("procurement app shape: %d queues, %d rules, %d slicings",
			len(app.Queues), len(app.Rules), len(app.Slicings))
	}
}
