package xquery

// Golden conformance corpus for the built-in function library: every
// function registered in functions.go is exercised through table-driven
// cases covering its edge behavior (empty sequences, type errors,
// NaN/overflow, string boundaries). A coverage check fails the suite when
// a newly registered function has no cases. Each case is also run through
// the program/interpreter differential check, so the corpus doubles as a
// targeted equivalence net for the function-call instruction.

import (
	"fmt"
	"strings"
	"testing"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// goldenDoc is the fixture every case evaluates against.
const goldenDocXML = `<m><a id="1">x</a><a id="2">y</a><n>3</n><n>4</n><f>2.5</f><e/><s> a  b </s></m>`

func goldenRuntime(doc *xmldom.Node) *fakeRuntime {
	master := xmldom.MustParse(`<prod sku="p1"><price>10</price></prod>`)
	return &fakeRuntime{
		message:    doc,
		queues:     map[string][]*xmldom.Node{"q1": {doc}, "": {doc}},
		curQueue:   "q1",
		props:      map[string]xdm.Value{"p": xdm.NewString("pv"), "num": xdm.NewInteger(7)},
		slice:      []*xmldom.Node{doc},
		sliceKey:   xdm.NewString("k1"),
		collection: map[string][]*xmldom.Node{"master": {master}},
	}
}

// renderSeq gives every result a canonical textual form: typed values as
// type(lexical), nodes as their serialization.
func renderSeq(s xdm.Sequence) string {
	parts := make([]string, len(s))
	for i, it := range s {
		switch v := it.(type) {
		case xdm.Value:
			parts[i] = fmt.Sprintf("%s(%s)", v.T, v.StringValue())
		case xdm.Node:
			parts[i] = "node(" + xmldom.Serialize(v.N) + ")"
		}
	}
	return strings.Join(parts, " ")
}

type goldenCase struct {
	fn   string // registry key the case covers
	expr string
	// want is the rendered result, "!CODE" for a DynError with that code,
	// or "!!" for any evaluation error.
	want string
}

var goldenCases = []goldenCase{
	// --- boolean ---
	{"true", `true()`, `xs:boolean(true)`},
	{"false", `false()`, `xs:boolean(false)`},
	{"not", `not(())`, `xs:boolean(true)`},
	{"not", `not(//a)`, `xs:boolean(false)`},
	{"not", `not(0)`, `xs:boolean(true)`},
	{"boolean", `boolean(//missing)`, `xs:boolean(false)`},
	{"boolean", `boolean("")`, `xs:boolean(false)`},
	{"boolean", `boolean((1, 2))`, `!!`}, // FORG0006: no EBV of multi-item atomic sequence
	{"exists", `exists(())`, `xs:boolean(false)`},
	{"exists", `exists(//e)`, `xs:boolean(true)`},
	{"empty", `empty(())`, `xs:boolean(true)`},
	{"empty", `empty(//a)`, `xs:boolean(false)`},

	// --- sequences ---
	{"count", `count(())`, `xs:integer(0)`},
	{"count", `count(//a)`, `xs:integer(2)`},
	{"distinct-values", `distinct-values((1, 2, 1))`, `xs:integer(1) xs:integer(2)`},
	{"distinct-values", `distinct-values(())`, ``},
	{"distinct-values", `distinct-values((number("x"), number("y")))`, `xs:double(NaN)`}, // NaN equals NaN here
	{"reverse", `reverse((1, 2, 3))`, `xs:integer(3) xs:integer(2) xs:integer(1)`},
	{"reverse", `reverse(())`, ``},
	{"subsequence", `subsequence((1, 2, 3), 2)`, `xs:integer(2) xs:integer(3)`},
	{"subsequence", `subsequence((1, 2, 3), 2, 1)`, `xs:integer(2)`},
	{"subsequence", `subsequence((1, 2, 3), 0, 2)`, `xs:integer(1)`}, // positions < 1 consume length
	{"subsequence", `subsequence((), 1, 9)`, ``},
	{"index-of", `index-of((1, 2, 3, 2), 2)`, `xs:integer(2) xs:integer(4)`},
	{"index-of", `index-of((1, 2), 9)`, ``},
	{"index-of", `index-of((1, 2), (1, 2))`, `!XPTY0004`},
	{"last", `(1, 2, 3)[last()]`, `xs:integer(3)`},
	{"last", `last()`, `xs:integer(1)`}, // top level: context size 1
	{"position", `(4, 5, 6)[position() = 2]`, `xs:integer(5)`},
	{"position", `position()`, `xs:integer(1)`},

	// --- numeric aggregates ---
	{"sum", `sum(())`, `xs:integer(0)`},
	{"sum", `sum((1, 2, 3))`, `xs:integer(6)`},
	{"sum", `sum(//n)`, `xs:double(7)`}, // untyped content casts to double
	{"sum", `sum(("a", 1))`, `xs:double(NaN)`},
	{"avg", `avg(())`, ``},
	{"avg", `avg((1, 2))`, `xs:double(1.5)`},
	{"min", `min(())`, ``},
	{"min", `min((3, 1, 2))`, `xs:integer(1)`},
	{"min", `min((1, "a"))`, `!!`}, // incomparable types
	{"max", `max((3, 1, 2))`, `xs:integer(3)`},
	{"max", `max(//n)`, `xs:double(4)`},
	{"number", `number("12")`, `xs:double(12)`},
	{"number", `number("nope")`, `xs:double(NaN)`},
	{"number", `number(())`, `xs:double(NaN)`},
	{"number", `number((1, 2))`, `!XPTY0004`},
	{"floor", `floor(2.7)`, `xs:double(2)`},
	{"floor", `floor(())`, ``},
	{"floor", `floor(-2)`, `xs:integer(-2)`},
	{"ceiling", `ceiling(2.1)`, `xs:double(3)`},
	{"ceiling", `ceiling("x")`, `xs:double(NaN)`},
	{"round", `round(2.5)`, `xs:double(3)`},
	{"round", `round(-2.5)`, `xs:double(-2)`}, // round half toward +inf
	{"abs", `abs(-3)`, `xs:integer(3)`},
	{"abs", `abs(-2.5)`, `xs:double(2.5)`},

	// --- strings ---
	{"string", `string(42)`, `xs:string(42)`},
	{"string", `string(())`, `xs:string()`},
	{"string", `string(//a[1])`, `xs:string(x)`},
	{"string", `string((1, 2))`, `!XPTY0004`},
	{"concat", `concat("a", "b", "c")`, `xs:string(abc)`},
	{"concat", `concat((), "x")`, `xs:string(x)`},
	{"concat", `concat(//a, "!")`, `!XPTY0004`}, // multi-item argument
	{"string-join", `string-join(("a", "b"), "-")`, `xs:string(a-b)`},
	{"string-join", `string-join((), "-")`, `xs:string()`},
	{"contains", `contains("hello", "ell")`, `xs:boolean(true)`},
	{"contains", `contains("hello", "")`, `xs:boolean(true)`},
	{"contains", `contains((), "x")`, `xs:boolean(false)`},
	{"starts-with", `starts-with("hello", "he")`, `xs:boolean(true)`},
	{"starts-with", `starts-with("hello", "lo")`, `xs:boolean(false)`},
	{"ends-with", `ends-with("hello", "lo")`, `xs:boolean(true)`},
	{"ends-with", `ends-with("", "")`, `xs:boolean(true)`},
	{"substring-before", `substring-before("a=b", "=")`, `xs:string(a)`},
	{"substring-before", `substring-before("ab", "x")`, `xs:string()`},
	{"substring-after", `substring-after("a=b", "=")`, `xs:string(b)`},
	{"substring-after", `substring-after("ab", "x")`, `xs:string()`},
	{"substring", `substring("hello", 2, 3)`, `xs:string(ell)`},
	{"substring", `substring("hello", 0)`, `xs:string(hello)`},
	{"substring", `substring("hello", 2, -1)`, `xs:string()`},
	{"substring", `substring("héllo", 2, 2)`, `xs:string(él)`}, // rune positions, not bytes
	{"string-length", `string-length("héllo")`, `xs:integer(5)`},
	{"string-length", `string-length(())`, `xs:integer(0)`},
	{"normalize-space", `normalize-space("  a   b ")`, `xs:string(a b)`},
	{"normalize-space", `normalize-space(//s)`, `xs:string(a b)`},
	{"upper-case", `upper-case("mIx")`, `xs:string(MIX)`},
	{"lower-case", `lower-case("MIX")`, `xs:string(mix)`},
	{"translate", `translate("abcd", "abc", "x")`, `xs:string(xd)`}, // unmapped from-chars delete
	{"translate", `translate("abc", "", "xyz")`, `xs:string(abc)`},
	{"matches", `matches("abc", "[a-z]+")`, `xs:boolean(true)`},
	{"matches", `matches("abc", "(")`, `!FORX0002`},
	{"replace", `replace("banana", "a", "_")`, `xs:string(b_n_n_)`},
	{"replace", `replace("x", "(", "_")`, `!FORX0002`},
	{"tokenize", `tokenize("a b c", " ")`, `xs:string(a) xs:string(b) xs:string(c)`},
	{"tokenize", `tokenize("", " ")`, `xs:string()`},
	{"tokenize", `tokenize("x", "(")`, `!FORX0002`},

	// --- nodes ---
	{"name", `name(//a[1])`, `xs:string(a)`},
	{"name", `name(())`, `xs:string()`},
	{"local-name", `local-name(//a[2])`, `xs:string(a)`},
	{"local-name", `local-name(())`, `xs:string()`},
	{"namespace-uri", `namespace-uri(//a[1])`, `xs:string()`},
	{"root", `root(//a[1])`, "node(" + goldenDocXML + ")"},
	{"root", `root(())`, ``},
	{"root", `root(5)`, `!XPTY0004`},
	{"data", `data(//n)`, `xs:untypedAtomic(3) xs:untypedAtomic(4)`},
	{"data", `data(())`, ``},

	// --- dateTime ---
	{"current-dateTime", `current-dateTime()`, `xs:dateTime(2026-06-10T12:00:00Z)`},

	// --- master data ---
	{"collection", `collection("master")/prod/price`, `node(<price>10</price>)`},
	{"collection", `count(collection("missing"))`, `xs:integer(0)`},

	// --- qs: queue system library ---
	{"qs:message", `count(qs:message()//a)`, `xs:integer(2)`},
	{"qs:queue", `count(qs:queue("q1"))`, `xs:integer(1)`},
	{"qs:queue", `count(qs:queue())`, `xs:integer(1)`}, // defaults to the current queue
	{"qs:property", `qs:property("p")`, `xs:string(pv)`},
	{"qs:property", `qs:property("num") + 1`, `xs:integer(8)`},
	{"qs:property", `qs:property("missing")`, `!!`},
	{"qs:slice", `count(qs:slice())`, `xs:integer(1)`},
	{"qs:slicekey", `qs:slicekey()`, `xs:string(k1)`},
}

func TestFunctionGoldenCorpus(t *testing.T) {
	doc := xmldom.MustParse(goldenDocXML)
	for _, tc := range goldenCases {
		t.Run(tc.fn+"/"+tc.expr, func(t *testing.T) {
			e, err := parseExpr(tc.expr)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			c, err := Compile(e, CompileOptions{AllowSlice: true})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			seq, _, err := Eval(c, goldenRuntime(doc), EvalOptions{ContextDoc: doc})
			switch {
			case tc.want == "!!":
				if err == nil {
					t.Fatalf("want an error, got %s", renderSeq(seq))
				}
			case strings.HasPrefix(tc.want, "!"):
				de, ok := err.(*DynError)
				if !ok || de.Code != tc.want[1:] {
					t.Fatalf("want error %s, got %v", tc.want[1:], err)
				}
			default:
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				if got := renderSeq(seq); got != tc.want {
					t.Fatalf("got %q, want %q", got, tc.want)
				}
			}
			// Both evaluators must agree on every golden case as well.
			if mismatch := compareBackends(c, goldenRuntime(doc), EvalOptions{ContextDoc: doc}); mismatch != "" {
				t.Fatalf("backend divergence: %s", mismatch)
			}
		})
	}
}

// TestFunctionCorpusCoverage fails when a registered function has no golden
// cases — add cases to goldenCases whenever the library grows.
func TestFunctionCorpusCoverage(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range goldenCases {
		covered[tc.fn] = true
	}
	var missing []string
	for name := range functions {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("functions without golden cases: %v", missing)
	}
	// And no stale cases for functions that no longer exist.
	for name := range covered {
		if _, ok := functions[name]; !ok {
			t.Fatalf("golden case references unknown function %q", name)
		}
	}
}
