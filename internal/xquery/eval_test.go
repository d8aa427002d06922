package xquery

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// fakeRuntime is a test double for the queue-system runtime.
type fakeRuntime struct {
	message    *xmldom.Node
	queues     map[string][]*xmldom.Node
	curQueue   string
	props      map[string]xdm.Value
	slice      []*xmldom.Node
	sliceKey   xdm.Value
	collection map[string][]*xmldom.Node
	now        time.Time
}

func (f *fakeRuntime) Message() (*xmldom.Node, error) {
	if f.message == nil {
		return nil, fmt.Errorf("no current message")
	}
	return f.message, nil
}

func (f *fakeRuntime) Queue(name string) ([]*xmldom.Node, error) {
	if name == "" {
		name = f.curQueue
	}
	docs, ok := f.queues[name]
	if !ok {
		return nil, fmt.Errorf("unknown queue %q", name)
	}
	return docs, nil
}

func (f *fakeRuntime) Property(name string) (xdm.Value, error) {
	v, ok := f.props[name]
	if !ok {
		return xdm.Value{}, fmt.Errorf("unknown property %q", name)
	}
	return v, nil
}

func (f *fakeRuntime) Slice() ([]*xmldom.Node, error) { return f.slice, nil }
func (f *fakeRuntime) SliceKey() (xdm.Value, error)   { return f.sliceKey, nil }
func (f *fakeRuntime) Collection(name string) ([]*xmldom.Node, error) {
	return f.collection[name], nil
}
func (f *fakeRuntime) Now() time.Time {
	if f.now.IsZero() {
		return time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)
	}
	return f.now
}

func evalStr(t *testing.T, src string, doc *xmldom.Node, rt Runtime) (xdm.Sequence, *UpdateList) {
	t.Helper()
	c := MustCompile(src, CompileOptions{AllowSlice: true})
	if rt == nil {
		rt = &fakeRuntime{}
	}
	seq, ups, err := Eval(c, rt, EvalOptions{ContextDoc: doc})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return seq, ups
}

func evalOne(t *testing.T, src string, doc *xmldom.Node) xdm.Value {
	t.Helper()
	seq, _ := evalStr(t, src, doc, nil)
	if len(seq) != 1 {
		t.Fatalf("eval %q: want 1 item, got %d", src, len(seq))
	}
	return xdm.Atomize(seq[0])
}

func TestEvalArithmetic(t *testing.T) {
	cases := map[string]string{
		`1 + 2`:       "3",
		`7 - 10`:      "-3",
		`6 * 7`:       "42",
		`7 div 2`:     "3.5",
		`7 idiv 2`:    "3",
		`7 mod 3`:     "1",
		`-(3 + 4)`:    "-7",
		`2 + 3 * 4`:   "14",
		`(2 + 3) * 4`: "20",
		`1.5 + 1`:     "2.5",
	}
	for src, want := range cases {
		if got := evalOne(t, src, nil).StringValue(); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
	// Division by zero on integers.
	c := MustCompile(`1 div 0`, CompileOptions{})
	if _, _, err := Eval(c, &fakeRuntime{}, EvalOptions{}); err == nil {
		t.Error("integer division by zero should error")
	}
	// Empty operand propagates.
	seq, _ := evalStr(t, `() + 1`, nil, nil)
	if len(seq) != 0 {
		t.Error("arithmetic with empty operand yields empty")
	}
}

func TestEvalLogic(t *testing.T) {
	cases := map[string]bool{
		`true() and true()`:                    true,
		`true() and false()`:                   false,
		`false() or true()`:                    true,
		`not(false())`:                         true,
		`1 = 1 and 2 = 2`:                      true,
		`some $x in (1,2,3) satisfies $x = 2`:  true,
		`every $x in (1,2,3) satisfies $x > 0`: true,
		`every $x in (1,2,3) satisfies $x > 1`: false,
		`some $x in () satisfies $x = 1`:       false,
		`every $x in () satisfies $x = 1`:      true,
	}
	for src, want := range cases {
		v := evalOne(t, src, nil)
		if v.B != want {
			t.Errorf("%s = %v, want %v", src, v.B, want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The right operand divides by zero; and/or must not evaluate it.
	if v := evalOne(t, `false() and (1 div 0 = 1)`, nil); v.B {
		t.Error("and should short-circuit")
	}
	if v := evalOne(t, `true() or (1 div 0 = 1)`, nil); !v.B {
		t.Error("or should short-circuit")
	}
}

const orderDoc = `<order>
  <orderID>42</orderID>
  <customer vip="yes"><customerID>23</customerID><name>ACME</name></customer>
  <items>
    <item><sku>A1</sku><qty>2</qty><price>10.5</price></item>
    <item><sku>B2</sku><qty>1</qty><price>99</price></item>
    <item><sku>C3</sku><qty>5</qty><price>3</price></item>
  </items>
</order>`

func TestEvalPaths(t *testing.T) {
	doc := xmldom.MustParse(orderDoc)
	cases := map[string]string{
		`/order/orderID`:                           "42",
		`//customerID`:                             "23",
		`//customer/@vip`:                          "yes",
		`count(//item)`:                            "3",
		`//item[2]/sku`:                            "B2",
		`//item[last()]/sku`:                       "C3",
		`//item[qty > 1][2]/sku`:                   "C3",
		`count(//item[price < 50])`:                "2",
		`//item[sku = "B2"]/price`:                 "99",
		`string(//customer/name)`:                  "ACME",
		`//orderID/text()`:                         "42",
		`count(//order//sku)`:                      "3",
		`count(/order/items/*)`:                    "3",
		`//item[1]/following-sibling::item[1]/sku`: "B2",
		`//item[3]/preceding-sibling::item[1]/sku`: "B2", // nearest first
		`//sku[1]/ancestor::items/../orderID`:      "42",
		`count(//item/self::item)`:                 "3",
		`name(/order)`:                             "order",
		`local-name(//customer/@vip)`:              "vip",
		`sum(//qty)`:                               "8",
		`max(//price)`:                             "99",
		`min(//price)`:                             "3",
		`avg(//qty)`:                               "2.6666666666666665",
	}
	for src, want := range cases {
		seq, _ := evalStr(t, src, doc, nil)
		if len(seq) == 0 {
			t.Errorf("%s: empty result", src)
			continue
		}
		got := xdm.ItemString(seq[0])
		if got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestEvalPathDocOrderAndDedup(t *testing.T) {
	doc := xmldom.MustParse(orderDoc)
	// Union of overlapping sets: dedup + doc order.
	seq, _ := evalStr(t, `//item[2] | //item | //item[1]`, doc, nil)
	if len(seq) != 3 {
		t.Fatalf("union size = %d", len(seq))
	}
	first := seq[0].(xdm.Node).N
	if childElement(first, "sku").StringValue() != "A1" {
		t.Error("union not in document order")
	}
	// Parent steps dedup: every item's parent is the same items element.
	seq, _ = evalStr(t, `count(//item/..)`, doc, nil)
	if xdm.ItemString(seq[0]) != "1" {
		t.Error("parent step should deduplicate")
	}
}

func TestEvalFLWOR(t *testing.T) {
	doc := xmldom.MustParse(orderDoc)
	seq, _ := evalStr(t, `for $i in //item where $i/qty > 1 return string($i/sku)`, doc, nil)
	if len(seq) != 2 || xdm.ItemString(seq[0]) != "A1" || xdm.ItemString(seq[1]) != "C3" {
		t.Fatalf("flwor result: %v", seq)
	}
	seq, _ = evalStr(t, `for $i in //item order by number($i/price) return string($i/sku)`, doc, nil)
	got := []string{xdm.ItemString(seq[0]), xdm.ItemString(seq[1]), xdm.ItemString(seq[2])}
	if strings.Join(got, ",") != "C3,A1,B2" {
		t.Fatalf("order by: %v", got)
	}
	seq, _ = evalStr(t, `for $i in //item order by number($i/price) descending return string($i/sku)`, doc, nil)
	if xdm.ItemString(seq[0]) != "B2" {
		t.Fatal("descending order")
	}
	// let + positional var.
	seq, _ = evalStr(t, `for $i at $p in //item let $s := $i/sku where $p = 2 return string($s)`, doc, nil)
	if len(seq) != 1 || xdm.ItemString(seq[0]) != "B2" {
		t.Fatalf("positional: %v", seq)
	}
	// Nested iteration.
	seq, _ = evalStr(t, `for $a in (1,2), $b in (10,20) return $a * $b`, nil, nil)
	if len(seq) != 4 || xdm.ItemString(seq[3]) != "40" {
		t.Fatalf("cartesian: %v", seq)
	}
}

func TestEvalConstructors(t *testing.T) {
	doc := xmldom.MustParse(orderDoc)
	seq, _ := evalStr(t, `<ack id="{//orderID}">{//customer/name} ok {1+1}</ack>`, doc, nil)
	if len(seq) != 1 {
		t.Fatal("constructor yields one element")
	}
	el := seq[0].(xdm.Node).N
	if el.Name.Local != "ack" {
		t.Fatal("constructed name")
	}
	if v, _ := el.Attr("id"); v != "42" {
		t.Fatalf("constructed attr: %q", v)
	}
	// Node copy: the name element is deep-copied into the new tree.
	nameEl := childElement(el, "name")
	if nameEl == nil || nameEl.StringValue() != "ACME" {
		t.Fatal("copied child element")
	}
	if nameEl.Document() == doc {
		t.Fatal("copied node must belong to the constructed tree")
	}
	if !strings.Contains(el.StringValue(), " ok 2") {
		t.Fatalf("text content: %q", el.StringValue())
	}
	// Sequence of atomics inside constructor joins with spaces.
	seq, _ = evalStr(t, `<v>{(1,2,3)}</v>`, nil, nil)
	if got := seq[0].(xdm.Node).N.StringValue(); got != "1 2 3" {
		t.Fatalf("atomic join: %q", got)
	}
	// Adjacent enclosed expressions do not insert spaces.
	seq, _ = evalStr(t, `<v>{1}{2}</v>`, nil, nil)
	if got := seq[0].(xdm.Node).N.StringValue(); got != "12" {
		t.Fatalf("adjacent enclosed: %q", got)
	}
}

func TestEvalStringFunctions(t *testing.T) {
	cases := map[string]string{
		`concat("a","b","c")`:            "abc",
		`substring("hello", 2, 3)`:       "ell",
		`substring-before("a=b", "=")`:   "a",
		`substring-after("a=b", "=")`:    "b",
		`normalize-space("  a   b ")`:    "a b",
		`upper-case("abc")`:              "ABC",
		`lower-case("AbC")`:              "abc",
		`translate("abcabc", "ab", "x")`: "xcxc",
		`string-join(("a","b"), "-")`:    "a-b",
		`string-length("héllo")`:         "5",
		`replace("a1b2", "[0-9]", "#")`:  "a#b#",
		`string(42)`:                     "42",
	}
	for src, want := range cases {
		if got := evalOne(t, src, nil).StringValue(); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
	boolCases := map[string]bool{
		`contains("hello", "ell")`:   true,
		`starts-with("hello", "he")`: true,
		`ends-with("hello", "lo")`:   true,
		`matches("a1b", "[0-9]")`:    true,
		`matches("abc", "^[0-9]+$")`: false,
	}
	for src, want := range boolCases {
		if got := evalOne(t, src, nil).B; got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	seq, _ := evalStr(t, `tokenize("a,b,c", ",")`, nil, nil)
	if len(seq) != 3 {
		t.Error("tokenize")
	}
}

func TestEvalSequenceFunctions(t *testing.T) {
	cases := map[string]string{
		`count((1,2,3))`: "3",
		// xs:string "2" and xs:integer 2 are incomparable, hence distinct.
		`count(distinct-values((1,2,2,"2",3)))`:   "4",
		`count(subsequence((1,2,3,4), 2, 2))`:     "2",
		`string-join(reverse(("a","b","c")), "")`: "cba",
		`index-of((10,20,30), 20)`:                "2",
		`count(1 to 5)`:                           "5",
		`count(5 to 1)`:                           "0",
		`sum(())`:                                 "0",
		`count(data((1, "x")))`:                   "2",
	}
	for src, want := range cases {
		if got := evalOne(t, src, nil).StringValue(); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

func TestEvalQsFunctions(t *testing.T) {
	msg := xmldom.MustParse(`<offerRequest><requestID>r1</requestID><customerID>23</customerID></offerRequest>`)
	inv1 := xmldom.MustParse(`<invoice><customerID>23</customerID><amount>100</amount></invoice>`)
	inv2 := xmldom.MustParse(`<invoice><customerID>99</customerID><amount>5</amount></invoice>`)
	rt := &fakeRuntime{
		message:  msg,
		curQueue: "crm",
		queues: map[string][]*xmldom.Node{
			"crm":      {msg},
			"invoices": {inv1, inv2},
		},
		props:    map[string]xdm.Value{"orderID": xdm.NewString("o7")},
		slice:    []*xmldom.Node{msg, inv1},
		sliceKey: xdm.NewString("r1"),
		collection: map[string][]*xmldom.Node{
			"crm": {xmldom.MustParse(`<pricelist><p sku="A1">10</p></pricelist>`)},
		},
	}
	c := MustCompile(`qs:message()//requestID`, CompileOptions{})
	seq, _, err := Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil || len(seq) != 1 || xdm.ItemString(seq[0]) != "r1" {
		t.Fatalf("qs:message: %v %v", seq, err)
	}

	// The paper's Fig. 6 credit check predicate. qs:message() returns the
	// document node (paper Sec. 3.4 text), so the figure's child step is
	// transcribed as a descendant step.
	c = MustCompile(`qs:queue("invoices")[//customerID = qs:message()//customerID]`, CompileOptions{})
	seq, _, err = Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil || len(seq) != 1 {
		t.Fatalf("queue predicate: %d items, %v", len(seq), err)
	}

	c = MustCompile(`qs:queue()`, CompileOptions{})
	seq, _, err = Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil || len(seq) != 1 {
		t.Fatalf("default queue: %v %v", seq, err)
	}

	c = MustCompile(`qs:property("orderID")`, CompileOptions{})
	seq, _, err = Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil || xdm.ItemString(seq[0]) != "o7" {
		t.Fatalf("property: %v %v", seq, err)
	}

	c = MustCompile(`count(qs:slice())`, CompileOptions{AllowSlice: true})
	seq, _, err = Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil || xdm.ItemString(seq[0]) != "2" {
		t.Fatalf("slice: %v %v", seq, err)
	}

	c = MustCompile(`qs:slicekey()`, CompileOptions{AllowSlice: true})
	seq, _, err = Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil || xdm.ItemString(seq[0]) != "r1" {
		t.Fatalf("slicekey: %v %v", seq, err)
	}

	c = MustCompile(`collection("crm")//p/@sku`, CompileOptions{})
	seq, _, err = Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil || xdm.ItemString(seq[0]) != "A1" {
		t.Fatalf("collection: %v %v", seq, err)
	}
}

func TestSliceFunctionsRequireSlicingRule(t *testing.T) {
	e := mustParse(t, `qs:slice()`)
	if _, err := Compile(e, CompileOptions{AllowSlice: false}); err == nil {
		t.Fatal("qs:slice outside slicing rule must be a static error")
	}
	e = mustParse(t, `do reset`)
	if _, err := Compile(e, CompileOptions{AllowSlice: false}); err == nil {
		t.Fatal("bare do reset outside slicing rule must be a static error")
	}
}

func TestEvalUpdates(t *testing.T) {
	doc := xmldom.MustParse(orderDoc)
	src := `if (//orderID) then
	          (do enqueue <check>{//orderID}</check> into finance,
	           do enqueue <log>{//customerID}</log> into audit
	             with Sender value "urn:test" with Level value 3,
	           do reset orders key string(//orderID))`
	_, ups := evalStr(t, src, doc, nil)
	if ups.Len() != 3 {
		t.Fatalf("pending updates: %d", ups.Len())
	}
	enq := ups.Updates[0].(*EnqueueUpdate)
	if enq.Queue != "finance" || enq.Doc.Root().Name.Local != "check" {
		t.Fatalf("first enqueue: %+v", enq)
	}
	if enq.Doc.Root().StringValue() != "42" {
		t.Fatal("payload evaluated against message")
	}
	enq2 := ups.Updates[1].(*EnqueueUpdate)
	if enq2.Props["Sender"].StringValue() != "urn:test" || enq2.Props["Level"].I != 3 {
		t.Fatalf("props: %+v", enq2.Props)
	}
	rst := ups.Updates[2].(*ResetUpdate)
	if rst.Slicing != "orders" || rst.Key.StringValue() != "42" || rst.Implicit {
		t.Fatalf("reset: %+v", rst)
	}

	// Condition false: no updates (and no else branch).
	_, ups = evalStr(t, `if (//nonexistent) then do enqueue <x/> into q`, doc, nil)
	if ups.Len() != 0 {
		t.Fatal("false condition must produce no updates")
	}
}

func TestEvalUpdateInFLWOR(t *testing.T) {
	doc := xmldom.MustParse(orderDoc)
	_, ups := evalStr(t, `for $i in //item return do enqueue <pick>{$i/sku}</pick> into warehouse`, doc, nil)
	if ups.Len() != 3 {
		t.Fatalf("per-iteration updates: %d", ups.Len())
	}
	if ups.Updates[2].(*EnqueueUpdate).Doc.Root().StringValue() != "C3" {
		t.Fatal("updates in iteration order")
	}
}

func TestSnapshotSemanticsNoSideEffectsDuringEval(t *testing.T) {
	// A1 ablation: evaluation only collects updates; queue contents seen by
	// qs:queue() do not change mid-evaluation even after a do enqueue.
	msg := xmldom.MustParse(`<m/>`)
	rt := &fakeRuntime{
		message:  msg,
		curQueue: "q",
		queues:   map[string][]*xmldom.Node{"q": {msg}, "out": {}},
	}
	src := `(do enqueue <a/> into out, count(qs:queue("out")))`
	c := MustCompile(src, CompileOptions{})
	seq, ups, err := Eval(c, rt, EvalOptions{ContextDoc: msg})
	if err != nil {
		t.Fatal(err)
	}
	if ups.Len() != 1 {
		t.Fatal("one pending enqueue")
	}
	if len(seq) != 1 || xdm.ItemString(seq[0]) != "0" {
		t.Fatalf("snapshot violated: out queue visible size = %v", seq)
	}
}

func TestEvalDynamicErrors(t *testing.T) {
	doc := xmldom.MustParse(`<a><b>1</b><b>2</b></a>`)
	bad := []string{
		`do enqueue (//b) into q`,  // two items
		`do enqueue "text" into q`, // atomic payload
		`1 + "x"`,                  // non-numeric arithmetic
		`(1,2) + 1`,                // sequence operand
		`$undefined`,               // declared external variable with no value
	}
	for _, src := range bad {
		c := MustCompile(src, CompileOptions{ExtraVars: []string{"undefined"}})
		if _, _, err := Eval(c, &fakeRuntime{}, EvalOptions{ContextDoc: doc}); err == nil {
			t.Errorf("expected dynamic error for %q", src)
		}
	}
}

func TestCompileStaticErrors(t *testing.T) {
	bad := []string{
		`$x + 1`,              // unbound variable
		`unknown-function(1)`, // unknown function
		`concat("a")`,         // arity
		`zz:foo()`,            // unknown prefix
	}
	for _, src := range bad {
		e := mustParse(t, src)
		if _, err := Compile(e, CompileOptions{}); err == nil {
			t.Errorf("expected static error for %q", src)
		}
	}
	// FLWOR-bound variables are fine.
	e := mustParse(t, `for $x in (1,2) return $x`)
	if _, err := Compile(e, CompileOptions{}); err != nil {
		t.Errorf("flwor binding: %v", err)
	}
	// ExtraVars extend scope.
	e = mustParse(t, `$msg/a`)
	if _, err := Compile(e, CompileOptions{ExtraVars: []string{"msg"}}); err != nil {
		t.Errorf("extra vars: %v", err)
	}
}

// unlowerable is an expression node kind the lowerer does not know.
type unlowerable struct{ xpathExpr }

// TestLoweringIsTotal pins that Compile never hands out an expression
// without a program: what it cannot lower is an error.
func TestLoweringIsTotal(t *testing.T) {
	if c, err := Compile(nil, CompileOptions{}); err == nil || c != nil {
		t.Fatalf("Compile(nil) = %v, %v; want an error", c, err)
	}
	if p, err := lower(unlowerable{}, CompileOptions{}); err == nil || p != nil {
		t.Fatalf("lower(unknown node) = %v, %v; want an error", p, err)
	}
	for _, src := range handPickedExprs {
		if c := MustCompile(src, CompileOptions{AllowSlice: true}); c.prog == nil {
			t.Fatalf("%q compiled without a program", src)
		}
	}
}

func TestEvalCurrentDateTime(t *testing.T) {
	rt := &fakeRuntime{now: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	c := MustCompile(`current-dateTime()`, CompileOptions{})
	seq, _, err := Eval(c, rt, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := seq[0].(xdm.Value)
	if v.T != xdm.TypeDateTime || !v.D.Equal(rt.now) {
		t.Fatalf("current-dateTime: %+v", v)
	}
}

func TestEvalPositionInPredicates(t *testing.T) {
	doc := xmldom.MustParse(`<l><i>a</i><i>b</i><i>c</i><i>d</i></l>`)
	seq, _ := evalStr(t, `//i[position() > 2]`, doc, nil)
	if len(seq) != 2 || xdm.ItemString(seq[0]) != "c" {
		t.Fatalf("position(): %v", seq)
	}
	seq, _ = evalStr(t, `//i[position() = last()]`, doc, nil)
	if len(seq) != 1 || xdm.ItemString(seq[0]) != "d" {
		t.Fatal("last()")
	}
}

func TestEvalVariablesProvided(t *testing.T) {
	c := MustCompile(`$n * 2`, CompileOptions{ExtraVars: []string{"n"}})
	seq, _, err := Eval(c, &fakeRuntime{}, EvalOptions{
		Vars: map[string]xdm.Sequence{"n": xdm.Singleton(xdm.NewInteger(21))},
	})
	if err != nil || xdm.ItemString(seq[0]) != "42" {
		t.Fatalf("external vars: %v %v", seq, err)
	}
}

func mustParse(t *testing.T, src string) xpathExpr {
	t.Helper()
	e, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}
