package property

import (
	"testing"
	"time"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

func compile(t *testing.T, src string) *xquery.Compiled {
	t.Helper()
	return xquery.MustCompile(src, xquery.CompileOptions{})
}

func defOrderID(t *testing.T) *Def {
	// The paper's Sec. 2.2 example: computed, fixed, different expressions
	// per queue.
	return &Def{
		Name: "orderID", Type: xdm.TypeString, Fixed: true,
		PerQueue: map[string]*xquery.Compiled{
			"order":        compile(t, `//orderID`),
			"confirmation": compile(t, `/confirmedOrder/ID`),
		},
	}
}

func defIsVIP(t *testing.T) *Def {
	// create property isVIPorder as xs:boolean inherited
	//   queue crm, finance, legal, customer value false
	val := compile(t, `false()`)
	return &Def{
		Name: "isVIPorder", Type: xdm.TypeBoolean, Inherited: true,
		PerQueue: map[string]*xquery.Compiled{
			"crm": val, "finance": val, "legal": val, "customer": val,
		},
	}
}

func TestComputedPerQueue(t *testing.T) {
	m := NewManager()
	if err := m.Define(defOrderID(t)); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	doc := xmldom.MustParse(`<order><orderID>o42</orderID></order>`)
	props, err := m.Evaluate("order", doc, nil, nil, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if props["orderID"].S != "o42" {
		t.Fatalf("computed: %+v", props["orderID"])
	}
	doc2 := xmldom.MustParse(`<confirmedOrder><ID>c7</ID></confirmedOrder>`)
	props, err = m.Evaluate("confirmation", doc2, nil, nil, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if props["orderID"].S != "c7" {
		t.Fatalf("per-queue expression: %+v", props["orderID"])
	}
	// Not defined on other queues.
	props, _ = m.Evaluate("other", doc, nil, nil, nil, now)
	if _, ok := props["orderID"]; ok {
		t.Fatal("property leaked to undeclared queue")
	}
}

func TestFixedRejectsExplicit(t *testing.T) {
	m := NewManager()
	m.Define(defOrderID(t))
	doc := xmldom.MustParse(`<order><orderID>o42</orderID></order>`)
	_, err := m.Evaluate("order", doc, map[string]xdm.Value{"orderID": xdm.NewString("evil")}, nil, nil, time.Now())
	if err == nil {
		t.Fatal("fixed property must reject explicit assignment")
	}
}

func TestInheritanceAndDefault(t *testing.T) {
	m := NewManager()
	m.Define(defIsVIP(t))
	doc := xmldom.MustParse(`<msg/>`)
	now := time.Now()
	// No parent: default (computed) value false.
	props, err := m.Evaluate("crm", doc, nil, nil, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if v := props["isVIPorder"]; v.T != xdm.TypeBoolean || v.B {
		t.Fatalf("default: %+v", v)
	}
	// Parent carries true: inherited.
	parent := map[string]xdm.Value{"isVIPorder": xdm.NewBool(true)}
	props, err = m.Evaluate("finance", doc, nil, parent, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if !props["isVIPorder"].B {
		t.Fatal("inheritance failed")
	}
	// Explicit overrides inheritance (paper: "if not explicitly set to a
	// different value").
	props, err = m.Evaluate("legal", doc, map[string]xdm.Value{"isVIPorder": xdm.NewBool(false)}, parent, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if props["isVIPorder"].B {
		t.Fatal("explicit should beat inheritance")
	}
}

func TestExplicitTypeCast(t *testing.T) {
	m := NewManager()
	m.Define(&Def{
		Name: "prio", Type: xdm.TypeInteger,
		PerQueue: map[string]*xquery.Compiled{"q": nil},
	})
	doc := xmldom.MustParse(`<m/>`)
	props, err := m.Evaluate("q", doc, map[string]xdm.Value{"prio": xdm.NewString("5")}, nil, nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if v := props["prio"]; v.T != xdm.TypeInteger || v.I != 5 {
		t.Fatalf("cast: %+v", v)
	}
	if _, err := m.Evaluate("q", doc, map[string]xdm.Value{"prio": xdm.NewString("x")}, nil, nil, time.Now()); err == nil {
		t.Fatal("bad cast should fail")
	}
}

func TestUndefinedExplicitRejected(t *testing.T) {
	m := NewManager()
	doc := xmldom.MustParse(`<m/>`)
	if _, err := m.Evaluate("q", doc, map[string]xdm.Value{"nope": xdm.NewString("v")}, nil, nil, time.Now()); err == nil {
		t.Fatal("undefined property must be rejected")
	}
	// System-reserved names pass through.
	props, err := m.Evaluate("q", doc, map[string]xdm.Value{"Sender": xdm.NewString("urn:x")}, nil, nil, time.Now())
	if err != nil || props["Sender"].S != "urn:x" {
		t.Fatalf("system prop: %v %v", props, err)
	}
}

func TestSystemProps(t *testing.T) {
	m := NewManager()
	doc := xmldom.MustParse(`<m/>`)
	sys := map[string]xdm.Value{
		SysCreatingRule: xdm.NewString("ruleA"),
		SysCreated:      xdm.NewDateTime(time.Date(2026, 6, 10, 0, 0, 0, 0, time.UTC)),
	}
	props, err := m.Evaluate("q", doc, nil, nil, sys, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if props[SysCreatingRule].S != "ruleA" {
		t.Fatal("system property lost")
	}
}

func TestDuplicateDefineRejected(t *testing.T) {
	m := NewManager()
	m.Define(defIsVIP(t))
	if err := m.Define(defIsVIP(t)); err == nil {
		t.Fatal("duplicate definition must fail")
	}
}

// TestMultiValuedMarker: a fixed property whose expression yields several
// items keeps the first and carries the multi-valued marker; one item, or a
// non-fixed property, carries none.
func TestMultiValuedMarker(t *testing.T) {
	m := NewManager()
	if err := m.Define(defOrderID(t)); err != nil {
		t.Fatal(err)
	}
	if err := m.Define(&Def{Name: "loose", Type: xdm.TypeString,
		PerQueue: map[string]*xquery.Compiled{"order": compile(t, `//orderID`)}}); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	props, err := m.Evaluate("order", xmldom.MustParse(`<order><orderID>o1</orderID><orderID>o2</orderID></order>`), nil, nil, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if props["orderID"].S != "o1" || props[MultiValued("orderID")] != xdm.NewBool(true) {
		t.Fatalf("two orderIDs: %+v", props)
	}
	if _, ok := props[MultiValued("loose")]; ok {
		t.Fatalf("non-fixed property marked: %+v", props)
	}
	props, err = m.Evaluate("order", xmldom.MustParse(`<order><orderID>o1</orderID></order>`), nil, nil, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := props[MultiValued("orderID")]; ok {
		t.Fatalf("one orderID marked: %+v", props)
	}
	if _, err := m.Evaluate("order", xmldom.MustParse(`<order/>`), map[string]xdm.Value{MultiValued("orderID"): xdm.NewBool(true)}, nil, nil, now); err == nil {
		t.Fatal("the marker was set explicitly")
	}
	// A message whose properties failed to evaluate carries the marker of
	// every fixed property, so that a lookup by value still fetches it.
	props = m.Unevaluated("order", map[string]xdm.Value{SysCreatingRule: xdm.NewString("r")})
	if len(props) != 2 || props[SysCreatingRule].S != "r" || props[MultiValued("orderID")] != xdm.NewBool(true) {
		t.Fatalf("unevaluated: %+v", props)
	}
}
