package xquery

// Differential testing of the evaluation program against the reference
// AST interpreter (interp_test.go): a generated corpus of expressions
// (axes × predicates × functions × constructors × FLWOR × update
// primitives) is evaluated by both over randomized documents, asserting
// identical result sequences, identical pending update lists and identical
// error codes. The interpreter is the reference; any divergence is a bug
// in program.go.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// --- corpus generation ---

type exprGen struct {
	r    *rand.Rand
	vars []string // in-scope variable names
}

func (g *exprGen) pick(options ...string) string {
	return options[g.r.Intn(len(options))]
}

func (g *exprGen) elemName() string {
	return g.pick("a", "b", "c", "item", "id", "k", "total")
}

func (g *exprGen) literal() string {
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprint(g.r.Intn(20) - 5)
	case 1:
		return fmt.Sprintf("%d.%d", g.r.Intn(10), g.r.Intn(100))
	case 2:
		return `"` + g.pick("x", "alpha", "42", "", "a b") + `"`
	case 3:
		return g.pick("1", "2", "3")
	default:
		return `"` + g.elemName() + `"`
	}
}

func (g *exprGen) step() string {
	name := g.elemName()
	switch g.r.Intn(8) {
	case 0:
		return "@" + g.pick("id", "n", "x")
	case 1:
		return "*"
	case 2:
		return "text()"
	case 3:
		return "node()"
	case 4:
		return ".."
	case 5:
		return g.pick("descendant", "ancestor", "self", "following-sibling",
			"preceding-sibling", "descendant-or-self", "ancestor-or-self") + "::" + name
	default:
		return name
	}
}

func (g *exprGen) predicate(depth int) string {
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprint(g.r.Intn(3) + 1)
	case 1:
		return "position() " + g.pick("=", "<", ">", "!=") + fmt.Sprint(g.r.Intn(3)+1)
	case 2:
		return "last()"
	case 3:
		return g.path(depth - 1)
	case 4:
		return g.path(depth-1) + " = " + g.literal()
	default:
		return g.pick("true()", "not("+g.path(depth-1)+")")
	}
}

func (g *exprGen) path(depth int) string {
	var sb strings.Builder
	sb.WriteString(g.pick("/", "//", "", "", "."))
	if sb.String() == "." {
		return "."
	}
	nSteps := 1 + g.r.Intn(3)
	for i := 0; i < nSteps; i++ {
		if i > 0 {
			sb.WriteString(g.pick("/", "//"))
		}
		sb.WriteString(g.step())
		if depth > 0 && g.r.Intn(3) == 0 {
			sb.WriteString("[" + g.predicate(depth-1) + "]")
		}
	}
	return sb.String()
}

func (g *exprGen) funcCall(depth int) string {
	p := func() string { return g.path(depth - 1) }
	e := func() string { return g.gen(depth - 1) }
	lit := func() string { return g.literal() }
	switch g.r.Intn(24) {
	case 0:
		return "count(" + p() + ")"
	case 1:
		return g.pick("exists", "empty", "not", "boolean") + "(" + p() + ")"
	case 2:
		return "string(" + e() + ")"
	case 3:
		return "concat(" + lit() + ", " + e() + ")"
	case 4:
		return "string-length(" + e() + ")"
	case 5:
		return g.pick("normalize-space", "upper-case", "lower-case") + "(" + e() + ")"
	case 6:
		return g.pick("contains", "starts-with", "ends-with") + "(" + e() + ", " + lit() + ")"
	case 7:
		return g.pick("substring-before", "substring-after") + "(" + e() + ", " + lit() + ")"
	case 8:
		return fmt.Sprintf("substring(%s, %d, %d)", e(), g.r.Intn(4), g.r.Intn(5))
	case 9:
		return "string-join(" + p() + ", \",\")"
	case 10:
		return "translate(" + e() + ", \"abc\", \"xy\")"
	case 11:
		return "number(" + e() + ")"
	case 12:
		return g.pick("floor", "ceiling", "round", "abs") + "(" + e() + ")"
	case 13:
		return g.pick("sum", "avg", "min", "max") + "(" + p() + ")"
	case 14:
		return "distinct-values(" + p() + ")"
	case 15:
		return "reverse(" + p() + ")"
	case 16:
		return fmt.Sprintf("subsequence(%s, %d, %d)", p(), g.r.Intn(3)+1, g.r.Intn(3)+1)
	case 17:
		return "index-of(" + p() + ", " + lit() + ")"
	case 18:
		return "data(" + p() + ")"
	case 19:
		return g.pick("name", "local-name") + "(" + p() + ")"
	case 20:
		return "tokenize(" + e() + ", \" \")"
	case 21:
		return "matches(" + e() + ", \"[a-z]+\")"
	case 22:
		return "replace(" + e() + ", \"a\", \"_\")"
	default:
		return "qs:" + g.pick("message()", "queue(\"q1\")", "property(\"p\")", "slice()", "slicekey()")
	}
}

func (g *exprGen) flwor(depth int) string {
	v := fmt.Sprintf("v%d", len(g.vars))
	g.vars = append(g.vars, v)
	defer func() { g.vars = g.vars[:len(g.vars)-1] }()
	var sb strings.Builder
	src := g.pick(g.path(depth-1), fmt.Sprintf("%d to %d", g.r.Intn(3), g.r.Intn(6)))
	pos := ""
	if g.r.Intn(3) == 0 {
		pos = " at $" + v + "p"
		g.vars = append(g.vars, v+"p")
		defer func() { g.vars = g.vars[:len(g.vars)-1] }()
	}
	fmt.Fprintf(&sb, "for $%s%s in %s ", v, pos, src)
	if g.r.Intn(3) == 0 {
		fmt.Fprintf(&sb, "let $%sl := %s ", v, g.gen(depth-1))
		g.vars = append(g.vars, v+"l")
		defer func() { g.vars = g.vars[:len(g.vars)-1] }()
	}
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&sb, "where %s ", g.gen(depth-1))
	}
	if g.r.Intn(3) == 0 {
		fmt.Fprintf(&sb, "order by %s %s ", g.gen(depth-1), g.pick("ascending", "descending"))
	}
	fmt.Fprintf(&sb, "return %s", g.gen(depth-1))
	return sb.String()
}

func (g *exprGen) quantified(depth int) string {
	v := fmt.Sprintf("q%d", len(g.vars))
	g.vars = append(g.vars, v)
	defer func() { g.vars = g.vars[:len(g.vars)-1] }()
	return fmt.Sprintf("%s $%s in %s satisfies %s",
		g.pick("some", "every"), v, g.path(depth-1), g.gen(depth-1))
}

func (g *exprGen) constructor(depth int) string {
	name := g.elemName()
	var sb strings.Builder
	sb.WriteString("<" + name)
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&sb, ` x="{%s}"`, g.gen(depth-1))
	}
	sb.WriteString(">")
	switch g.r.Intn(4) {
	case 0:
		sb.WriteString("lit")
	case 1:
		fmt.Fprintf(&sb, "{%s}", g.gen(depth-1))
	case 2:
		fmt.Fprintf(&sb, "<inner>{%s}</inner>", g.gen(depth-1))
	default:
		fmt.Fprintf(&sb, "t{%s}u", g.path(depth-1))
	}
	sb.WriteString("</" + name + ">")
	return sb.String()
}

// gen produces one expression of bounded depth.
func (g *exprGen) gen(depth int) string {
	if depth <= 0 {
		if len(g.vars) > 0 && g.r.Intn(4) == 0 {
			return "$" + g.vars[g.r.Intn(len(g.vars))]
		}
		return g.pick(g.literal(), g.path(0), ".")
	}
	switch g.r.Intn(12) {
	case 0:
		return g.path(depth)
	case 1:
		return g.funcCall(depth)
	case 2:
		return "(" + g.gen(depth-1) + " " + g.pick("+", "-", "*", "div", "idiv", "mod") + " " + g.gen(depth-1) + ")"
	case 3:
		return "(" + g.gen(depth-1) + " " +
			g.pick("=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "le", "gt", "ge") + " " + g.gen(depth-1) + ")"
	case 4:
		return "(" + g.gen(depth-1) + " " + g.pick("and", "or") + " " + g.gen(depth-1) + ")"
	case 5:
		return "(if (" + g.gen(depth-1) + ") then " + g.gen(depth-1) + " else " + g.gen(depth-1) + ")"
	case 6:
		return "(" + g.flwor(depth) + ")"
	case 7:
		return "(" + g.quantified(depth) + ")"
	case 8:
		return g.constructor(depth)
	case 9:
		return "(" + g.gen(depth-1) + ", " + g.gen(depth-1) + ")"
	case 10:
		return "(" + g.path(depth-1) + " | " + g.path(depth-1) + ")"
	default:
		if g.r.Intn(4) == 0 {
			return "(do enqueue " + g.constructor(depth-1) + " into q1)"
		}
		return "-(" + g.gen(depth-1) + ")"
	}
}

// genDoc builds a random document over the same element vocabulary.
func genDoc(r *rand.Rand) *xmldom.Node {
	b := xmldom.NewBuilder()
	names := []string{"a", "b", "c", "item", "id", "k", "total"}
	var build func(depth int)
	build = func(depth int) {
		name := names[r.Intn(len(names))]
		b.StartElement(xmldom.Name{Local: name})
		if r.Intn(2) == 0 {
			b.Attribute(xmldom.Name{Local: []string{"id", "n", "x"}[r.Intn(3)]},
				fmt.Sprint(r.Intn(10)))
		}
		kids := r.Intn(4)
		for i := 0; i < kids; i++ {
			switch {
			case depth <= 0 || r.Intn(3) == 0:
				switch r.Intn(3) {
				case 0:
					b.Text(fmt.Sprint(r.Intn(100)))
				case 1:
					b.Text([]string{"x", "alpha", "a b", "42"}[r.Intn(4)])
				default:
					b.Text("7.5")
				}
			default:
				build(depth - 1)
			}
		}
		b.EndElement()
	}
	b.StartElement(xmldom.Name{Local: "m"})
	top := 1 + r.Intn(3)
	for i := 0; i < top; i++ {
		build(2)
	}
	b.EndElement()
	return b.Done()
}

// --- result comparison ---

func valuesEqual(a, b xdm.Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case xdm.TypeString, xdm.TypeUntyped:
		return a.S == b.S
	case xdm.TypeBoolean:
		return a.B == b.B
	case xdm.TypeInteger:
		return a.I == b.I
	case xdm.TypeDecimal, xdm.TypeDouble:
		return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case xdm.TypeDateTime:
		return a.D.Equal(b.D)
	}
	return false
}

// itemsEqual compares items: nodes of the input document by identity,
// constructed nodes structurally.
func itemsEqual(a, b xdm.Item, inputDoc *xmldom.Node) (bool, string) {
	an, aIsNode := a.(xdm.Node)
	bn, bIsNode := b.(xdm.Node)
	if aIsNode != bIsNode {
		return false, fmt.Sprintf("item kinds differ: %s vs %s", xdm.Describe(a), xdm.Describe(b))
	}
	if aIsNode {
		if an.N == bn.N {
			return true, ""
		}
		aFromInput := inputDoc != nil && an.N.Document() == inputDoc
		bFromInput := inputDoc != nil && bn.N.Document() == inputDoc
		if aFromInput || bFromInput {
			return false, fmt.Sprintf("node identity differs: %s vs %s",
				xmldom.Serialize(an.N), xmldom.Serialize(bn.N))
		}
		if !xmldom.DeepEqual(an.N, bn.N) {
			return false, fmt.Sprintf("constructed nodes differ: %s vs %s",
				xmldom.Serialize(an.N), xmldom.Serialize(bn.N))
		}
		return true, ""
	}
	av, bv := a.(xdm.Value), b.(xdm.Value)
	if !valuesEqual(av, bv) {
		return false, fmt.Sprintf("values differ: %s %q vs %s %q", av.T, av.StringValue(), bv.T, bv.StringValue())
	}
	return true, ""
}

func seqsEqual(a, b xdm.Sequence, inputDoc *xmldom.Node) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if ok, why := itemsEqual(a[i], b[i], inputDoc); !ok {
			return false, fmt.Sprintf("item %d: %s", i, why)
		}
	}
	return true, ""
}

func updatesEqual(a, b *UpdateList) (bool, string) {
	if a.Len() != b.Len() {
		return false, fmt.Sprintf("update counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Updates {
		switch ua := a.Updates[i].(type) {
		case *EnqueueUpdate:
			ub, ok := b.Updates[i].(*EnqueueUpdate)
			if !ok {
				return false, fmt.Sprintf("update %d kinds differ", i)
			}
			if ua.Queue != ub.Queue || !xmldom.DeepEqual(ua.Doc, ub.Doc) {
				return false, fmt.Sprintf("enqueue %d differs: %s vs %s", i,
					xmldom.Serialize(ua.Doc), xmldom.Serialize(ub.Doc))
			}
			if len(ua.Props) != len(ub.Props) {
				return false, fmt.Sprintf("enqueue %d prop counts differ", i)
			}
			for k, v := range ua.Props {
				if !valuesEqual(v, ub.Props[k]) {
					return false, fmt.Sprintf("enqueue %d prop %q differs", i, k)
				}
			}
		case *ResetUpdate:
			ub, ok := b.Updates[i].(*ResetUpdate)
			if !ok {
				return false, fmt.Sprintf("update %d kinds differ", i)
			}
			if ua.Slicing != ub.Slicing || ua.Implicit != ub.Implicit || !valuesEqual(ua.Key, ub.Key) {
				return false, fmt.Sprintf("reset %d differs", i)
			}
		}
	}
	return true, ""
}

func errCode(err error) string {
	if err == nil {
		return ""
	}
	if de, ok := err.(*DynError); ok {
		return de.Code
	}
	return "other:" + err.Error()
}

// diffRuntime returns the fake runtime both backends evaluate against.
func diffRuntime(doc *xmldom.Node) *fakeRuntime {
	return &fakeRuntime{
		message: doc,
		queues: map[string][]*xmldom.Node{
			"q1": {doc},
			"":   {doc},
		},
		curQueue: "q1",
		props:    map[string]xdm.Value{"p": xdm.NewString("alpha")},
		slice:    []*xmldom.Node{doc},
		sliceKey: xdm.NewString("k1"),
	}
}

// compareBackends evaluates c with the reference interpreter and with its
// program and describes the first difference in results, pending updates
// or error codes, or returns "" when the two agree.
func compareBackends(c *Compiled, rt Runtime, opts EvalOptions) string {
	iSeq, iUps, iErr := evalInterpreted(c, rt, opts)
	cSeq, cUps, cErr := Eval(c, rt, opts)
	if (iErr == nil) != (cErr == nil) {
		return fmt.Sprintf("error mismatch: interpreted=%v compiled=%v", iErr, cErr)
	}
	if iErr != nil {
		if errCode(iErr) != errCode(cErr) {
			return fmt.Sprintf("error codes differ: interpreted=%v compiled=%v", iErr, cErr)
		}
		return ""
	}
	if ok, why := seqsEqual(iSeq, cSeq, opts.ContextDoc); !ok {
		return "result " + why
	}
	if ok, why := updatesEqual(iUps, cUps); !ok {
		return "updates " + why
	}
	return ""
}

// runDifferentialCase evaluates one expression over one document with both
// evaluators and reports a mismatch description, or "" when equivalent.
func runDifferentialCase(t *testing.T, src string, doc *xmldom.Node) string {
	t.Helper()
	e, err := parseExpr(src)
	if err != nil {
		t.Fatalf("generator produced unparsable expression %q: %v", src, err)
	}
	c, err := Compile(e, CompileOptions{AllowSlice: true})
	if err != nil {
		t.Fatalf("generator produced uncompilable expression %q: %v", src, err)
	}
	return compareBackends(c, diffRuntime(doc), EvalOptions{ContextDoc: doc})
}

// TestDifferentialCompiledVsInterpreted is the main equivalence net: ≥1000
// generated expression/document pairs.
func TestDifferentialCompiledVsInterpreted(t *testing.T) {
	const nExprs = 400
	const nDocs = 4

	docs := make([]*xmldom.Node, nDocs)
	docRand := rand.New(rand.NewSource(7))
	for i := range docs {
		docs[i] = genDoc(docRand)
	}

	pairs, failures := 0, 0
	for i := 0; i < nExprs; i++ {
		g := &exprGen{r: rand.New(rand.NewSource(int64(i)))}
		src := g.gen(3)
		for d, doc := range docs {
			pairs++
			if mismatch := runDifferentialCase(t, src, doc); mismatch != "" {
				failures++
				t.Errorf("seed=%d doc=%d expr=%q: %s", i, d, src, mismatch)
				if failures > 20 {
					t.Fatalf("too many differential failures; stopping")
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("differential corpus too small: %d pairs", pairs)
	}
	t.Logf("differential corpus: %d pairs", pairs)
}

// handPickedDoc is the document of TestDifferentialHandPicked and
// FuzzEvalBackends.
const handPickedDoc = `<m><a id="1">x</a><a id="2">y</a><b><a id="3">z</a><c>7</c></b><total>9.5</total></m>`

// handPickedExprs pins tricky constructs that the generator hits only
// occasionally; they also seed FuzzEvalBackends.
var handPickedExprs = []string{
	`//a`,
	`//a[2]`,
	`//a[position() > 1]`,
	`//a[last()]`,
	`/m/b/a/../c`,
	`//a[@id = "2"]`,
	`//a/@id`,
	`//*[c]`,
	`count(//a) + sum(//c)`,
	`//a[1][@id]`,
	`(//a, //c)[2]`,
	`(//a | //c)`,
	`//text()`,
	`/m/node()`,
	`//a/ancestor::m`,
	`//c/ancestor-or-self::*`,
	`//a/following-sibling::*`,
	`//c/preceding-sibling::a`,
	`//a/self::a`,
	`/m/descendant::a[2]`,
	`for $x in //a return string($x)`,
	`for $x at $i in //a return ($i, $x/@id)`,
	`for $x in //a order by $x/@id descending return string($x)`,
	// Error precedence: a later tuple's where clause must error before
	// an earlier tuple's order-by key does.
	`for $x in (1, 2) where (if ($x = 2) then (1 div 0) > 0 else true()) order by ("a" + 1) return $x`,
	`for $x in (1, 2) order by ("a" + $x) return $x`,
	`for $x in //a for $y in //c return concat($x, $y)`,
	`for $x in //a let $s := string($x) where $s != "y" return $s`,
	`some $x in //a satisfies $x/@id = "2"`,
	`every $x in //a satisfies number($x/@id) < 10`,
	`if (//b) then "yes" else "no"`,
	`if (//missing) then "yes" else "no"`,
	`if (//a and //c) then 1 else 2`,
	`if (not(//missing) or //a) then 1 else 2`,
	`<out n="{count(//a)}">{//b/c}</out>`,
	`<out>{//a/text()}</out>`,
	`<wrap><inner>{1 + 2}</inner>{"s"}</wrap>`,
	`1 to 5`,
	`(1 to 3)[2]`,
	`-(//total)`,
	`//total + 1`,
	`//c * 2`,
	`5 idiv 2`,
	`5 mod 0`,
	`1 div 0`,
	`"a" < 1`,
	`//a = //c`,
	`//a[1] is //a[1]`,
	`//a[1] is //a[2]`,
	`string-join(for $x in //a return string($x), "-")`,
	`do enqueue <msg>{//a[1]}</msg> into q1`,
	`do enqueue <msg/> into q1 with prio value 3`,
	`do reset slc key "k"`,
	`qs:message()//a`,
	`qs:queue("q1")//c`,
	`qs:property("p")`,
	`substring("hello", 2, 3)`,
	`normalize-space("  a   b ")`,
	`distinct-values((//a, //a))`,
	`reverse(//a)`,
	`subsequence(//a, 2, 1)`,
	`index-of((1, 2, 3, 2), 2)`,
	`number("nope")`,
	`floor(//total)`,
	`avg(//c)`,
	`min((3, 1, 2))`,
	`. = "x"`,
	`//a[. = "x"]`,
	`//b//a`,
	`//b/descendant-or-self::node()`,
	`string(//missing)`,
	`boolean(//missing)`,
	`count(//a) <= 3`,
	`//a[@id <= 2]`,
}

func TestDifferentialHandPicked(t *testing.T) {
	doc := xmldom.MustParse(handPickedDoc)
	for _, src := range handPickedExprs {
		t.Run(src, func(t *testing.T) {
			if mismatch := runDifferentialCase(t, src, doc); mismatch != "" {
				t.Errorf("expr %q: %s", src, mismatch)
			}
		})
	}
}
