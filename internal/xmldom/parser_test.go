package xmldom

import (
	"strings"
	"testing"
)

func TestParseSimpleElement(t *testing.T) {
	doc, err := ParseString(`<order id="42">hello</order>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root == nil || root.Name.Local != "order" {
		t.Fatalf("bad root: %+v", root)
	}
	if v, ok := root.Attr("id"); !ok || v != "42" {
		t.Fatalf("attr id = %q, %v", v, ok)
	}
	if got := root.StringValue(); got != "hello" {
		t.Fatalf("string value = %q", got)
	}
}

func TestParseNested(t *testing.T) {
	doc := MustParse(`<a><b>1</b><c><d>2</d></c></a>`)
	root := doc.Root()
	if len(root.ChildElements()) != 2 {
		t.Fatalf("want 2 child elements, got %d", len(root.ChildElements()))
	}
	if doc.StringValue() != "12" {
		t.Fatalf("string value = %q", doc.StringValue())
	}
	d := root.FirstChildElement("c").FirstChildElement("d")
	if d == nil || d.StringValue() != "2" {
		t.Fatalf("navigation failed: %+v", d)
	}
}

func TestParseXMLDeclAndComments(t *testing.T) {
	doc := MustParse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- top --><root><!-- inner -->x</root>")
	root := doc.Root()
	if root == nil || root.StringValue() != "x" {
		t.Fatal("declaration/comment handling broken")
	}
	var comments int
	for _, c := range root.Children {
		if c.Kind == CommentNode {
			comments++
		}
	}
	if comments != 1 {
		t.Fatalf("inner comments = %d", comments)
	}
}

func TestParseEntities(t *testing.T) {
	doc := MustParse(`<t a="&lt;&amp;&quot;">&#65;&#x42;&gt;</t>`)
	root := doc.Root()
	if v, _ := root.Attr("a"); v != `<&"` {
		t.Fatalf("attr = %q", v)
	}
	if root.StringValue() != "AB>" {
		t.Fatalf("text = %q", root.StringValue())
	}
}

func TestParseCDATA(t *testing.T) {
	doc := MustParse(`<t>a<![CDATA[<raw> & stuff]]>b</t>`)
	if got := doc.Root().StringValue(); got != "a<raw> & stuff"+"b" {
		t.Fatalf("got %q", got)
	}
	// CDATA merges with adjacent text into a single text node.
	if n := len(doc.Root().Children); n != 1 {
		t.Fatalf("want 1 merged text node, got %d", n)
	}
}

func TestParseNamespaces(t *testing.T) {
	doc := MustParse(`<a xmlns="urn:one" xmlns:p="urn:two"><p:b c="1" p:d="2"/></a>`)
	root := doc.Root()
	if root.Name.Space != "urn:one" {
		t.Fatalf("default ns = %q", root.Name.Space)
	}
	b := root.ChildElements()[0]
	if b.Name.Space != "urn:two" || b.Name.Local != "b" {
		t.Fatalf("prefixed element = %+v", b.Name)
	}
	// Unprefixed attribute has no namespace even with a default ns in scope.
	if b.Attrs[0].Name.Space != "" {
		t.Fatalf("unprefixed attr ns = %q", b.Attrs[0].Name.Space)
	}
	if b.Attrs[1].Name.Space != "urn:two" {
		t.Fatalf("prefixed attr ns = %q", b.Attrs[1].Name.Space)
	}
}

func TestNamespaceScoping(t *testing.T) {
	doc := MustParse(`<a xmlns:p="urn:outer"><b xmlns:p="urn:inner"><p:c/></b><p:d/></a>`)
	root := doc.Root()
	c := root.ChildElements()[0].ChildElements()[0]
	d := root.ChildElements()[1]
	if c.Name.Space != "urn:inner" {
		t.Fatalf("inner scope = %q", c.Name.Space)
	}
	if d.Name.Space != "urn:outer" {
		t.Fatalf("outer scope restored = %q", d.Name.Space)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                   // empty
		`<a>`,                                // unterminated
		`<a></b>`,                            // mismatch
		`<a><b></a></b>`,                     // improper nesting
		`<a b="1" b="2"/>`,                   // duplicate attribute
		`<a b=1/>`,                           // unquoted attribute
		`<p:a/>`,                             // undeclared prefix
		`<a>&unknown;</a>`,                   // unknown entity
		`<a>&#0;</a>`,                        // invalid char ref
		`<a/><b/>`,                           // two roots
		`text<a/>`,                           // content before root
		`<a b="<"/>`,                         // '<' in attribute
		`<a><!-- -- --></a>`,                 // '--' in comment
		`<!DOCTYPE a [<!ENTITY x "y">]><a/>`, // internal subset
	}
	for _, src := range cases {
		_, want := referenceParse([]byte(src))
		if _, err := ParseString(src); err == nil {
			t.Errorf("expected error for %q", src)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("error for %q is %T, want *ParseError", src, err)
		} else if want == nil || err.Error() != want.Error() {
			t.Errorf("error for %q is %v, reference reports %v", src, err, want)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	const src = "<a>\n  <b></c>\n</a>"
	_, err := ParseString(src)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2", pe.Line)
	}
	if _, ref := referenceParse([]byte(src)); ref == nil || *ref.(*ParseError) != *pe {
		t.Fatalf("position %v, reference reports %v", pe, ref)
	}
}

func TestDoctypeSkipped(t *testing.T) {
	doc := MustParse(`<!DOCTYPE html><a>ok</a>`)
	if doc.Root().StringValue() != "ok" {
		t.Fatal("doctype not skipped")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cases := []string{
		`<a/>`,
		`<a>text</a>`,
		`<a b="1" c="two"><d/>tail</a>`,
		`<a xmlns="urn:x"><b xmlns:p="urn:y" p:q="v">t</b></a>`,
		`<a>&lt;escaped&amp;&gt;</a>`,
		`<a b="quote&quot;here"/>`,
		`<a><!--c--><?pi data?>x</a>`,
	}
	for _, src := range cases {
		doc := MustParse(src)
		out := Serialize(doc)
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse of %q -> %q failed: %v", src, out, err)
		}
		if !DeepEqual(doc, doc2) {
			t.Fatalf("round trip changed structure: %q -> %q", src, out)
		}
	}
}

func TestDocumentOrder(t *testing.T) {
	doc := MustParse(`<a><b/><c><d/></c><e/></a>`)
	root := doc.Root()
	b := root.ChildElements()[0]
	d := root.ChildElements()[1].ChildElements()[0]
	e := root.ChildElements()[2]
	if !b.Before(d) || !d.Before(e) || e.Before(b) {
		t.Fatal("document order wrong")
	}
	nodes := []*Node{e, b, d, b}
	sorted := SortDocOrder(nodes)
	if len(sorted) != 3 || sorted[0] != b || sorted[1] != d || sorted[2] != e {
		t.Fatalf("sort/dedup wrong: %v", sorted)
	}
}

func TestCrossDocumentOrderStable(t *testing.T) {
	d1 := MustParse(`<a/>`)
	d2 := MustParse(`<b/>`)
	// Whatever the relative order, it must be antisymmetric and stable.
	if d1.Before(d2) == d2.Before(d1) {
		t.Fatal("cross-document order not antisymmetric")
	}
}

func TestCloneDetachesAndPreservesStructure(t *testing.T) {
	doc := MustParse(`<a x="1"><b>t</b></a>`)
	c := doc.Root().Clone()
	if c.Parent != nil {
		t.Fatal("clone should be detached")
	}
	if !DeepEqual(doc.Root(), c) {
		t.Fatal("clone differs")
	}
	// Mutating the clone must not affect the original.
	c.Attrs[0].Data = "2"
	if v, _ := doc.Root().Attr("x"); v != "1" {
		t.Fatal("clone aliases original")
	}
}

func TestCloneAsDocument(t *testing.T) {
	doc := MustParse(`<a><b>t</b></a>`)
	b := doc.Root().ChildElements()[0]
	nd := b.CloneAsDocument()
	if nd.Kind != DocumentNode || nd.Root().Name.Local != "b" {
		t.Fatalf("bad document clone: %+v", nd)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder()
	b.StartElement(Name{Local: "order"})
	b.Attribute(Name{Local: "id"}, "7")
	b.Element(Name{Local: "item"}, "widget")
	b.Text("x")
	b.Text("y") // must merge
	b.EndElement()
	doc := b.Done()
	root := doc.Root()
	if v, _ := root.Attr("id"); v != "7" {
		t.Fatal("builder attr")
	}
	if root.StringValue() != "widgetxy" {
		t.Fatalf("builder text %q", root.StringValue())
	}
	if n := len(root.Children); n != 2 { // item element + merged text
		t.Fatalf("children = %d", n)
	}
	if !doc.Sealed() {
		t.Fatal("builder result not sealed")
	}
}

func TestBuilderSubtree(t *testing.T) {
	src := MustParse(`<src a="1"><k>v</k></src>`)
	b := NewBuilder()
	b.StartElement(Name{Local: "wrap"})
	b.Subtree(src.Root())
	b.EndElement()
	doc := b.Done()
	inner := doc.Root().ChildElements()[0]
	if !DeepEqual(inner, src.Root()) {
		t.Fatal("subtree copy differs")
	}
	if inner.Parent != doc.Root() {
		t.Fatal("subtree not attached")
	}
}

func TestDeepEqualAttributeOrderInsensitive(t *testing.T) {
	a := MustParse(`<x p="1" q="2"/>`)
	b := MustParse(`<x q="2" p="1"/>`)
	if !DeepEqual(a, b) {
		t.Fatal("attribute order should not matter")
	}
	c := MustParse(`<x p="1" q="3"/>`)
	if DeepEqual(a, c) {
		t.Fatal("different values must differ")
	}
}

func TestEscapeHelpers(t *testing.T) {
	if EscapeText(`a<b>&c`) != "a&lt;b&gt;&amp;c" {
		t.Fatal("EscapeText")
	}
	if EscapeAttr(`"<&`) != "&quot;&lt;&amp;" {
		t.Fatal("EscapeAttr")
	}
	if EscapeText("plain") != "plain" {
		t.Fatal("no-op escape should return input")
	}
}

func TestLargeDocument(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<big>")
	for i := 0; i < 5000; i++ {
		sb.WriteString("<item n=\"x\">payload text</item>")
	}
	sb.WriteString("</big>")
	doc, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Root().ChildElements()) != 5000 {
		t.Fatal("large doc child count")
	}
}
