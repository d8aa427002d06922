package xpath

import (
	"fmt"
	"strconv"
	"testing"

	"demaq/internal/xdm"
)

func parse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExprString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func TestParseLiterals(t *testing.T) {
	if l := parse(t, `"hi"`).(*Literal); l.Value.S != "hi" {
		t.Fatal("string literal")
	}
	if l := parse(t, `'it''s'`).(*Literal); l.Value.S != "it's" {
		t.Fatal("doubled quote escape")
	}
	if l := parse(t, `"&lt;&amp;"`).(*Literal); l.Value.S != "<&" {
		t.Fatal("entities in string literal")
	}
	if l := parse(t, `"&#65;&#x42;"`).(*Literal); l.Value.S != "AB" {
		t.Fatal("character references in string literal")
	}
	if l := parse(t, `42`).(*Literal); l.Value.T != xdm.TypeInteger || l.Value.I != 42 {
		t.Fatal("integer literal")
	}
	if l := parse(t, `3.25`).(*Literal); l.Value.T != xdm.TypeDecimal || l.Value.F != 3.25 {
		t.Fatal("decimal literal")
	}
	if l := parse(t, `1e3`).(*Literal); l.Value.T != xdm.TypeDouble || l.Value.F != 1000 {
		t.Fatal("double literal")
	}
}

func TestParsePathShapes(t *testing.T) {
	p := parse(t, `//offerRequest`).(*PathExpr)
	if !p.Rooted || !p.Descend || len(p.Steps) != 1 {
		t.Fatalf("//name: %+v", p)
	}
	if p.Steps[0].Test.Name.Local != "offerRequest" {
		t.Fatal("step name")
	}

	p = parse(t, `/confirmedOrder/ID`).(*PathExpr)
	if !p.Rooted || p.Descend || len(p.Steps) != 2 {
		t.Fatalf("/a/b: %+v", p)
	}

	p = parse(t, `a//b`).(*PathExpr)
	// a, descendant-or-self::node(), b
	if p.Rooted || len(p.Steps) != 3 || p.Steps[1].Axis != AxisDescendantOrSelf {
		t.Fatalf("a//b: %+v", p)
	}

	p = parse(t, `@id`).(*PathExpr)
	if p.Steps[0].Axis != AxisAttribute {
		t.Fatal("@ abbreviation")
	}

	p = parse(t, `..`).(*PathExpr)
	if p.Steps[0].Axis != AxisParent {
		t.Fatal(".. abbreviation")
	}

	p = parse(t, `child::a/descendant::b/ancestor::*`).(*PathExpr)
	if p.Steps[0].Axis != AxisChild || p.Steps[1].Axis != AxisDescendant || p.Steps[2].Axis != AxisAncestor {
		t.Fatal("explicit axes")
	}
	if p.Steps[2].Test.Kind != TestAnyName {
		t.Fatal("wildcard after axis")
	}

	if _, ok := parse(t, `/`).(*PathExpr); !ok {
		t.Fatal("bare / is a path")
	}
}

func TestParseKindTests(t *testing.T) {
	p := parse(t, `a/text()`).(*PathExpr)
	if p.Steps[1].Test.Kind != TestText {
		t.Fatal("text() kind test")
	}
	p = parse(t, `//node()`).(*PathExpr)
	if p.Steps[0].Test.Kind != TestNode {
		t.Fatal("node() kind test")
	}
	p = parse(t, `self::element(order)`).(*PathExpr)
	if p.Steps[0].Test.Kind != TestElement || p.Steps[0].Test.Name.Local != "order" {
		t.Fatal("element(name) kind test")
	}
}

func TestParsePredicates(t *testing.T) {
	p := parse(t, `item[3]`).(*PathExpr)
	if len(p.Steps[0].Preds) != 1 {
		t.Fatal("positional predicate")
	}
	p = parse(t, `invoice[//customerID = 5][2]`).(*PathExpr)
	if len(p.Steps[0].Preds) != 2 {
		t.Fatal("two predicates")
	}
	f := parse(t, `$invoices[//customerID = qs:message()/customerID]`).(*FilterExpr)
	if len(f.Preds) != 1 {
		t.Fatal("filter on variable")
	}
	if _, ok := f.Primary.(*VarRef); !ok {
		t.Fatal("filter primary")
	}
}

func TestParseFunctionCalls(t *testing.T) {
	fc := parse(t, `qs:message()`).(*FuncCall)
	if fc.Prefix != "qs" || fc.Local != "message" || len(fc.Args) != 0 {
		t.Fatalf("qs:message(): %+v", fc)
	}
	fc = parse(t, `qs:queue("invoices")`).(*FuncCall)
	if len(fc.Args) != 1 {
		t.Fatal("one arg")
	}
	fc = parse(t, `concat("a", "b", "c")`).(*FuncCall)
	if fc.Prefix != "" || len(fc.Args) != 3 {
		t.Fatal("concat args")
	}
	// Function call as path start.
	p := parse(t, `qs:queue("crm")/offerRequest`).(*PathExpr)
	if p.Start == nil || len(p.Steps) != 1 {
		t.Fatalf("function call path start: %+v", p)
	}
	// collection() from the paper's Fig. 7.
	p2 := parse(t, `collection("crm")[/pricelist]`)
	if _, ok := p2.(*FilterExpr); !ok {
		t.Fatalf("collection filter: %T", p2)
	}
}

func TestParseOperators(t *testing.T) {
	b := parse(t, `1 + 2 * 3`).(*BinaryExpr)
	if b.Op != BinAdd {
		t.Fatal("precedence: + on top")
	}
	if r := b.Right.(*BinaryExpr); r.Op != BinMul {
		t.Fatal("precedence: * binds tighter")
	}
	b = parse(t, `2 idiv 3 mod 4`).(*BinaryExpr)
	if b.Op != BinMod {
		t.Fatal("left assoc multiplicative")
	}
	c := parse(t, `//a = 5`).(*ComparisonExpr)
	if !c.General || c.Op != xdm.OpEq {
		t.Fatal("general comparison")
	}
	c = parse(t, `1 lt 2`).(*ComparisonExpr)
	if c.General || c.Op != xdm.OpLt {
		t.Fatal("value comparison")
	}
	c = parse(t, `. is .`).(*ComparisonExpr)
	if !c.NodeIs {
		t.Fatal("is comparison")
	}
	u := parse(t, `a | b`).(*BinaryExpr)
	if u.Op != BinUnion {
		t.Fatal("union |")
	}
	u = parse(t, `a union b`).(*BinaryExpr)
	if u.Op != BinUnion {
		t.Fatal("union keyword")
	}
	r := parse(t, `1 to 10`).(*BinaryExpr)
	if r.Op != BinRange {
		t.Fatal("range")
	}
	n := parse(t, `-5`).(*UnaryExpr)
	if !n.Neg {
		t.Fatal("unary minus")
	}
	or := parse(t, `a and b or c`).(*BinaryExpr)
	if or.Op != BinOr {
		t.Fatal("or lowest")
	}

	// Precedence, one row per adjacent pair of levels in both orders:
	// or < and < comparison < to < + - < * div idiv mod < union | < unary.
	shapes := []struct{ src, want string }{
		{`a or b and c`, `(or a (and b c))`},
		{`a and b or c`, `(or (and a b) c)`},
		{`a and b = c`, `(and a (= b c))`},
		{`a eq b and c`, `(and (eq a b) c)`},
		{`1 = 2 to 3`, `(= 1 (to 2 3))`},
		{`1 to 2 lt 3`, `(lt (to 1 2) 3)`},
		{`1 to 2 + 3`, `(to 1 (+ 2 3))`},
		{`1 - 2 to 3`, `(to (- 1 2) 3)`},
		{`1 + 2 * 3`, `(+ 1 (* 2 3))`},
		{`1 idiv 2 - 3`, `(- (idiv 1 2) 3)`},
		{`a * b | c`, `(* a (union b c))`},
		{`a union b mod c`, `(mod (union a b) c)`},
		{`-a | b`, `(union (neg a) b)`},
		{`a | -b`, `(union a (neg b))`},
		// Left associativity.
		{`1 - 2 - 3`, `(- (- 1 2) 3)`},
		{`8 div 4 div 2`, `(div (div 8 4) 2)`},
		{`a | b union c`, `(union (union a b) c)`},
		// Prefix operators.
		{`- - 5`, `(neg (neg 5))`},
		{`-1 + 2`, `(+ (neg 1) 2)`},
		{`+5`, `(pos 5)`},
		{`. is .`, `(is . .)`},
		{`1 != 2`, `(!= 1 2)`},
		// Keywords are operators only after a complete operand.
		{`or or and`, `(or or and)`},
		{`div div div`, `(div div div)`},
	}
	for _, c := range shapes {
		if got := shape(parse(t, c.src)); got != c.want {
			t.Errorf("%q parsed as %s, want %s", c.src, got, c.want)
		}
	}
	// Comparisons, "is" and "to" are non-associative.
	// The operator a closed right operand leaves unparsed also ends the
	// enclosing expressions.
	for _, src := range []string{`1 = 2 = 3`, `1 eq 2 eq 3`, `. is . is .`, `1 to 2 to 3`, `1 < 2 >= 3`,
		`a or 1 = 2 = 3`, `1 = 2 to 3 to 4`, `-1 to 2 to 3`} {
		if _, err := ParseExprString(src); err == nil {
			t.Errorf("%q: non-associative operator chained", src)
		}
	}
}

var binOpNames = [...]string{
	BinOr: "or", BinAnd: "and", BinAdd: "+", BinSub: "-", BinMul: "*",
	BinDiv: "div", BinIDiv: "idiv", BinMod: "mod", BinUnion: "union", BinRange: "to",
}

var generalCompNames = [...]string{
	xdm.OpEq: "=", xdm.OpNe: "!=", xdm.OpLt: "<", xdm.OpLe: "<=", xdm.OpGt: ">", xdm.OpGe: ">=",
}

// shape renders operator trees as s-expressions over integer literals,
// context items and single name steps.
func shape(e Expr) string {
	switch e := e.(type) {
	case *BinaryExpr:
		return "(" + binOpNames[e.Op] + " " + shape(e.Left) + " " + shape(e.Right) + ")"
	case *ComparisonExpr:
		op := e.Op.String()
		switch {
		case e.NodeIs:
			op = "is"
		case e.General:
			op = generalCompNames[e.Op]
		}
		return "(" + op + " " + shape(e.Left) + " " + shape(e.Right) + ")"
	case *UnaryExpr:
		if e.Neg {
			return "(neg " + shape(e.Operand) + ")"
		}
		return "(pos " + shape(e.Operand) + ")"
	case *Literal:
		return strconv.FormatInt(e.Value.I, 10)
	case *ContextItemExpr:
		return "."
	case *PathExpr:
		if e.Start == nil && !e.Rooted && len(e.Steps) == 1 {
			return e.Steps[0].Test.Name.Local
		}
	}
	return fmt.Sprintf("%T", e)
}

func TestParseSequence(t *testing.T) {
	s := parse(t, `(1, 2, 3)`).(*SequenceExpr)
	if len(s.Items) != 3 {
		t.Fatal("sequence items")
	}
	e := parse(t, `()`).(*SequenceExpr)
	if len(e.Items) != 0 {
		t.Fatal("empty sequence")
	}
}

func TestParseFLWOR(t *testing.T) {
	fl := parse(t, `for $x at $i in //item let $y := $x/price where $y > 10 order by $y descending return $x`).(*FLWORExpr)
	if len(fl.Clauses) != 2 {
		t.Fatalf("clauses: %d", len(fl.Clauses))
	}
	if !fl.Clauses[0].For || fl.Clauses[0].Var != "x" || fl.Clauses[0].PosVar != "i" {
		t.Fatalf("for clause: %+v", fl.Clauses[0])
	}
	if fl.Clauses[1].For || fl.Clauses[1].Var != "y" {
		t.Fatalf("let clause: %+v", fl.Clauses[1])
	}
	if fl.Where == nil || len(fl.OrderBy) != 1 || !fl.OrderBy[0].Descending {
		t.Fatal("where/order by")
	}
	// Multiple bindings with comma.
	fl = parse(t, `for $a in (1,2), $b in (3,4) return $a + $b`).(*FLWORExpr)
	if len(fl.Clauses) != 2 || !fl.Clauses[1].For {
		t.Fatal("comma-separated for bindings")
	}
}

func TestParseQuantified(t *testing.T) {
	q := parse(t, `some $x in //v satisfies $x = 3`).(*QuantifiedExpr)
	if q.Every || len(q.Bindings) != 1 {
		t.Fatal("some")
	}
	q = parse(t, `every $x in //v, $y in //w satisfies $x = $y`).(*QuantifiedExpr)
	if !q.Every || len(q.Bindings) != 2 {
		t.Fatal("every with two bindings")
	}
}

func TestParseIf(t *testing.T) {
	ife := parse(t, `if (//a) then 1 else 2`).(*IfExpr)
	if ife.Cond == nil || ife.Then == nil || ife.Else == nil {
		t.Fatal("if/then/else")
	}
	// Demaq allows a missing else (Sec. 3.3).
	ife = parse(t, `if (//a) then do enqueue . into q`).(*IfExpr)
	if ife.Else != nil {
		t.Fatal("else should be nil")
	}
}

func TestParseUpdatePrimitives(t *testing.T) {
	e := parse(t, `do enqueue $customerInfo into finance`).(*EnqueueExpr)
	if e.Queue != "finance" || len(e.Props) != 0 {
		t.Fatalf("enqueue: %+v", e)
	}
	e = parse(t, `do enqueue $m into supplier with Sender value "http://ws.chem.invalid/" with Priority value 3`).(*EnqueueExpr)
	if len(e.Props) != 2 || e.Props[0].Name != "Sender" || e.Props[1].Name != "Priority" {
		t.Fatalf("enqueue props: %+v", e.Props)
	}
	r := parse(t, `do reset`).(*ResetExpr)
	if r.Slicing != "" || r.Key != nil {
		t.Fatal("bare reset")
	}
	r = parse(t, `do reset orders key "42"`).(*ResetExpr)
	if r.Slicing != "orders" || r.Key == nil {
		t.Fatal("reset with slicing and key")
	}
	// "do reset" followed by else must not eat the else.
	ife := parse(t, `if (//a) then do reset else ()`).(*IfExpr)
	if ife.Else == nil {
		t.Fatal("reset swallowed else")
	}
	// Sequence of updates, as in Example 3.1.
	s := parse(t, `do enqueue $a into finance, do enqueue $b into legal, do enqueue $c into supplier`).(*SequenceExpr)
	if len(s.Items) != 3 {
		t.Fatal("update sequence")
	}
}

func TestParseConstructors(t *testing.T) {
	ec := parse(t, `<refuse/>`).(*ElementConstructor)
	if ec.Name.Local != "refuse" || len(ec.Content) != 0 {
		t.Fatal("empty constructor")
	}
	ec = parse(t, `<requestCustomerInfo>{//requestID} {//customerID}</requestCustomerInfo>`).(*ElementConstructor)
	if len(ec.Content) != 2 {
		t.Fatalf("constructor with two enclosed exprs: %d items", len(ec.Content))
	}
	ec = parse(t, `<a id="7" href="x{1+1}y">text {2} tail</a>`).(*ElementConstructor)
	if len(ec.Attrs) != 2 {
		t.Fatal("attrs")
	}
	if len(ec.Attrs[1].Parts) != 3 {
		t.Fatalf("attr value parts: %d", len(ec.Attrs[1].Parts))
	}
	// Content: "text ", {2}, " tail" (non-whitespace-only text preserved).
	if len(ec.Content) != 3 {
		t.Fatalf("constructor content: %d items", len(ec.Content))
	}
	// Nested constructors.
	ec = parse(t, `<outer><inner>{$x}</inner><empty/></outer>`).(*ElementConstructor)
	if len(ec.Content) != 2 {
		t.Fatal("nested constructors")
	}
	if _, ok := ec.Content[0].(*ElementConstructor); !ok {
		t.Fatal("inner constructor type")
	}
	// Escapes.
	ec = parse(t, `<a>{{literal}}</a>`).(*ElementConstructor)
	tl := ec.Content[0].(*TextLiteral)
	if tl.Text != "{literal}" {
		t.Fatalf("brace escapes: %q", tl.Text)
	}
	// Namespace declaration.
	ec = parse(t, `<e xmlns="urn:x" xmlns:p="urn:y"><p:c/></e>`).(*ElementConstructor)
	if ec.Name.Space != "urn:x" {
		t.Fatal("default ns in constructor")
	}
	if ec.Content[0].(*ElementConstructor).Name.Space != "urn:y" {
		t.Fatal("prefixed ns in constructor")
	}
}

func TestParsePaperExamples(t *testing.T) {
	// Close transcriptions of the paper's Figures 5-10 rule bodies.
	sources := []string{
		// Fig. 5 (Example 3.1), with elided lets filled in.
		`if (//offerRequest) then
		   let $customerInfo := <requestCustomerInfo>{//requestID} {//customerID}</requestCustomerInfo>
		   let $exportRestrictionsInfo := <exportRestrictionsInfo>{//requestID} {//items}</exportRestrictionsInfo>
		   let $plantCapacityInfo := <plantCapacityInfo>{//requestID} {//items}</plantCapacityInfo>
		   return (do enqueue $customerInfo into finance,
		           do enqueue $exportRestrictionsInfo into legal,
		           do enqueue $plantCapacityInfo into supplier
		             with Sender value "http://ws.chem.invalid/")`,
		// Fig. 6 (Example 3.2).
		`if (//requestCustomerInfo) then
		   let $result :=
		     <customerInfoResult>{//requestID} {//customerID}
		       {let $invoices := qs:queue("invoices")
		        return
		          if ($invoices[//customerID = qs:message()/customerID])
		          then <refuse/>
		          else <accept/>}
		     </customerInfoResult>
		   return do enqueue $result into crm`,
		// Fig. 7 (Example 3.3).
		`if (qs:slice()[/customerInfoResult] and
		     qs:slice()[/restrictionsResult] and
		     qs:slice()[/capacityResult]) then
		   if (qs:slice()[/customerInfoResult/accept] and
		       not(qs:slice()[/restrictionsResult//restrictedItem])
		       and qs:slice()[/capacityResult//accept]) then
		     let $request := qs:queue("crm")/offerRequest
		     let $items := $request[//requestID = qs:slicekey()]/items
		     let $pricelist := collection("crm")[/pricelist]
		     let $offer := <offer>{$items}</offer>
		     return do enqueue $offer into customer
		   else
		     do enqueue <refusal>{//requestID}</refusal> into customer`,
		// Fig. 8.
		`if (qs:slice()/offer or qs:slice()/refusal) then do reset`,
		// Fig. 9 (checkPayment).
		`if (//timeoutNotification) then
		   let $mRID := qs:message()//requestID
		   let $payments := qs:queue()[/paymentConfirmation]
		   return
		     if (not($payments[//requestID = $mRID])) then
		       let $invoice := qs:queue("invoices")[//requestID = $mRID]
		       let $reminder := <reminder>{$invoice//requestID}</reminder>
		       return do enqueue $reminder into customer
		     else ()`,
		// Fig. 10 (deadLink).
		`if (/error/disconnectedTransport) then
		   let $orders := qs:queue("crm")//customerOrders
		   let $initialOrderID := /error/initialMessage//orderID
		   let $address := $orders[orderID=$initialOrderID]/address
		   let $request := <sendMessage>{$address}{//initialMessage}</sendMessage>
		   return do enqueue $request into postalService`,
	}
	for i, src := range sources {
		if _, err := ParseExprString(src); err != nil {
			t.Errorf("paper example %d: %v", i+1, err)
		}
	}
}

func TestParseErrorsXPath(t *testing.T) {
	bad := []string{
		``, `1 +`, `for $x in`, `if (1) then`, `(1,`, `$`, `do enqueue 1`,
		`do enqueue 1 into`, `qs:queue(`, `a[1`, `<a>`, `<a></b>`, `"unterminated`,
		`do flush`, `1 ===`, `some $x in a`, `<a x=5/>`,
	}
	for _, src := range bad {
		if _, err := ParseExprString(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestParseCommentsInExpr(t *testing.T) {
	e := parse(t, `1 (: a comment (: nested :) here :) + 2`).(*BinaryExpr)
	if e.Op != BinAdd {
		t.Fatal("comments should be skipped")
	}
}

func TestTrailingInputRejected(t *testing.T) {
	if _, err := ParseExprString(`1 2`); err == nil {
		t.Fatal("expected trailing input error")
	}
}
