package xmldom

import (
	"bytes"
	"strings"
	"testing"
)

// streamSeeds is the shared corpus of FuzzParse and FuzzStreamParse.
var streamSeeds = []string{
	`<a/>`,
	`<a><b>text</b><b x="1"/></a>`,
	`<m><k>s1</k><data>payload &amp; more</data></m>`,
	`<ns:a xmlns:ns="urn:x"><ns:b ns:attr="v"/></ns:a>`,
	`<a xmlns="urn:default"><b/></a>`,
	`<a><!--comment--><?pi data?>t</a>`,
	`<a>&lt;escaped&gt; &quot;q&quot; &#65; &#x42;</a>`,
	`<?xml version="1.0"?><root><nested><deep>x</deep></nested></root>`,
	`<a att="  spaced  value "><![CDATA[raw <stuff> &]]></a>`,
	"<a>\n\tmixed <b>content</b> tail\n</a>",
}

// FuzzStreamParse pins both handlers of the walk to the reference grammar:
// for any input, StreamEncode without a projection, Parse and
// referenceParse must agree on acceptance and report the same error when
// rejecting; when accepting, Parse must build the reference tree and
// StreamEncode must produce its encoding byte for byte.
func FuzzStreamParse(f *testing.F) {
	for _, s := range streamSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		streamed, serr := StreamEncode(nil, data, nil)
		parsed, err := Parse(data)
		doc, perr := referenceParse(data)
		if (serr == nil) != (perr == nil) || (err == nil) != (perr == nil) {
			t.Fatalf("accept/reject disagreement\ninput: %q\nstream err: %v\nparse err:  %v\nreference err: %v", data, serr, err, perr)
		}
		if perr != nil {
			if serr.Error() != perr.Error() || err.Error() != perr.Error() {
				t.Fatalf("error disagreement\ninput: %q\nstream err: %v\nparse err:  %v\nreference err: %v", data, serr, err, perr)
			}
			return
		}
		want := Encode(doc)
		if !bytes.Equal(streamed, want) {
			t.Fatalf("streamed encoding differs from tree encoding\ninput:  %q\nstream: %x\ntree:   %x", data, streamed, want)
		}
		if got := Encode(parsed); !bytes.Equal(got, want) {
			t.Fatalf("parsed tree differs from reference tree\ninput:  %q\nparse:     %x\nreference: %x", data, got, want)
		}
	})
}

// FuzzProjectedStreamParse drives the span path: every input is encoded
// under a projection that prunes the root, one that prunes inside the
// document, and one that keeps b under a and keep under root. Acceptance
// and errors must match referenceParse, and a full decode of each accepted
// encoding must rebuild the reference tree, re-parsing every span.
func FuzzProjectedStreamParse(f *testing.F) {
	for _, s := range streamSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(projDoc))
	f.Add([]byte(`<root xmlns="urn:d" xmlns:p="urn:p"><keep>k</keep><drop><p:q a="1"/><inner/></drop></root>`))
	keepSome := NewProjection()
	keepSome.Child("a").Child("b").MarkAll()
	keepSome.Child("root").Child("keep").MarkAll()
	projs := []*Projection{NewProjection(), orderProjection(), keepSome}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, perr := referenceParse(data)
		for i, proj := range projs {
			enc, err := StreamEncode(nil, data, proj)
			if (err == nil) != (perr == nil) {
				t.Fatalf("projection %d: accept/reject disagreement\ninput: %q\nstream err: %v\nreference err: %v", i, data, err, perr)
			}
			if perr != nil {
				if err.Error() != perr.Error() {
					t.Fatalf("projection %d: error disagreement\ninput: %q\nstream err: %v\nreference err: %v", i, data, err, perr)
				}
				continue
			}
			full, err := Decode(enc)
			if err != nil {
				t.Fatalf("projection %d: decode of accepted input %q: %v", i, data, err)
			}
			if !DeepEqual(full, doc) {
				t.Fatalf("projection %d: materialized tree differs\ninput: %q\ngot:   %s\nwant:  %s", i, data, Serialize(full), Serialize(doc))
			}
		}
	})
}

func TestStreamEncodeMatchesTreeEncode(t *testing.T) {
	for _, src := range streamSeeds {
		streamed, err := StreamEncode(nil, []byte(src), nil)
		if err != nil {
			t.Fatalf("StreamEncode(%q): %v", src, err)
		}
		want := Encode(mustReferenceParse(src))
		if !bytes.Equal(streamed, want) {
			t.Fatalf("encoding mismatch for %q\nstream: %x\ntree:   %x", src, streamed, want)
		}
		doc, err := Decode(streamed)
		if err != nil {
			t.Fatalf("Decode of streamed %q: %v", src, err)
		}
		if !DeepEqual(doc, mustReferenceParse(src)) {
			t.Fatalf("decoded streamed tree differs for %q", src)
		}
	}
}

// TestStreamEncodeCorruptInput pins the rejection behavior of the
// streaming encoder on malformed wire input: every case must be rejected
// with exactly the error the tree parser reports.
func TestStreamEncodeCorruptInput(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"truncated start tag", `<order id="1`},
		{"truncated element", `<order><item>`},
		{"bad entity", `<a>&nosuch;</a>`},
		{"truncated entity", `<a>&amp`},
		{"bad char reference", `<a>&#x110000;</a>`},
		{"mismatched close", `<a><b></c></a>`},
		{"mismatched root close", `<a></b>`},
		{"duplicate attribute", `<a x="1" x="2"/>`},
		{"undeclared prefix", `<ns:a/>`},
		{"undeclared attr prefix", `<a ns:x="1"/>`},
		{"unquoted attribute", `<a x=1/>`},
		{"lt in attribute", `<a x="<"/>`},
		{"empty prefix undeclare", `<a xmlns:px=""/>`},
		{"content outside root", `<a/>trailing`},
		{"second root", `<a/><b/>`},
		{"no root", `<!--only a comment-->`},
		{"unterminated comment", `<a><!-- never closed</a>`},
		{"double dash comment", `<a><!-- a -- b --></a>`},
		{"unterminated cdata", `<a><![CDATA[open</a>`},
		{"doctype subset", `<!DOCTYPE a [<!ENTITY x "y">]><a/>`},
		{"misplaced xml decl", `<a><?xml version="1.0"?></a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := StreamEncode(nil, []byte(tc.input), nil)
			_, perr := referenceParse([]byte(tc.input))
			if perr == nil {
				t.Fatalf("tree parser unexpectedly accepts %q", tc.input)
			}
			if serr == nil {
				t.Fatalf("streaming encoder accepts %q, parser rejects with %v", tc.input, perr)
			}
			if serr.Error() != perr.Error() {
				t.Fatalf("error mismatch for %q\nstream: %v\nparse:  %v", tc.input, serr, perr)
			}
			// The skip path must validate identically: a projection that
			// prunes everything still sees every error.
			empty := NewProjection()
			if _, err := StreamEncode(nil, []byte(tc.input), empty); err == nil {
				t.Fatalf("projected streaming encoder accepts %q", tc.input)
			} else if err.Error() != perr.Error() {
				t.Fatalf("projected error mismatch for %q\nstream: %v\nparse:  %v", tc.input, err, perr)
			}
		})
	}
}

const projDoc = `<order xmlns:x="urn:x" id="42">` +
	`<customer><name>Ada</name><x:tier>gold</x:tier></customer>` +
	`<items><item sku="a1" qty="2"/><item sku="b2" qty="1"/></items>` +
	`<note>gift &amp; wrap</note>` +
	`</order>`

// orderProjection keeps /order/customer (whole subtree) and /order/note.
func orderProjection() *Projection {
	p := NewProjection()
	o := p.Child("order")
	o.Child("customer").MarkAll()
	o.Child("note").MarkAll()
	p.Fingerprint()
	return p
}

func TestProjectedEncodeFullMaterialization(t *testing.T) {
	proj := orderProjection()
	enc, err := StreamEncode(nil, []byte(projDoc), proj)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != EncVersionProjected {
		t.Fatalf("projected encoding has version byte %#x", enc[0])
	}
	if !Encoded(enc) {
		t.Fatal("Encoded must recognize projected records")
	}
	fp, ok := ProjectedFingerprint(enc)
	if !ok || fp != proj.Fingerprint() {
		t.Fatalf("fingerprint = %d, %v; want %d", fp, ok, proj.Fingerprint())
	}

	// Full materialization re-parses the spans: identical tree.
	full, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := mustReferenceParse(projDoc)
	if !DeepEqual(full, want) {
		t.Fatalf("materialized projected tree differs\ngot:  %s\nwant: %s", Serialize(full), Serialize(want))
	}
	if !full.Sealed() {
		t.Fatal("materialized tree is not sealed")
	}
	// Materialize dispatches on the format byte too.
	viaMat, err := Materialize(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !DeepEqual(viaMat, want) {
		t.Fatal("Materialize of projected record differs")
	}
}

func TestProjectedEncodePartialDecode(t *testing.T) {
	proj := orderProjection()
	enc, err := StreamEncode(nil, []byte(projDoc), proj)
	if err != nil {
		t.Fatal(err)
	}
	partial, fp, pruned, err := DecodeProjectedOwned(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fp != proj.Fingerprint() {
		t.Fatalf("fingerprint = %d, want %d", fp, proj.Fingerprint())
	}
	// items (and everything under it) was pruned; customer and note kept.
	s := Serialize(partial)
	if strings.Contains(s, "items") || strings.Contains(s, "sku") {
		t.Fatalf("partial tree contains pruned content: %s", s)
	}
	for _, kept := range []string{"<customer>", "<name>Ada</name>", "gold", "<note>gift &amp; wrap</note>", `id="42"`} {
		if !strings.Contains(s, kept) {
			t.Fatalf("partial tree is missing %q: %s", kept, s)
		}
	}
	// Every element local name inside a span is recorded (the dispatch
	// prefilter needs the full element-name set), sorted and distinct.
	if len(pruned) != 2 || pruned[0] != "item" || pruned[1] != "items" {
		t.Fatalf("pruned names = %v, want [item items]", pruned)
	}
	if !partial.Sealed() {
		t.Fatal("partial tree is not sealed")
	}
}

func TestProjectedEncodeSpanNamespaces(t *testing.T) {
	// The pruned subtree uses prefixes and a default namespace declared
	// outside the span; the span must carry those bindings.
	src := `<root xmlns="urn:d" xmlns:p="urn:p"><keep>k</keep><drop><p:q a="1"/><inner/></drop></root>`
	proj := NewProjection()
	proj.Child("root").Child("keep").MarkAll()
	enc, err := StreamEncode(nil, []byte(src), proj)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustReferenceParse(src); !DeepEqual(full, want) {
		t.Fatalf("span namespace resolution differs\ngot:  %s\nwant: %s", Serialize(full), Serialize(want))
	}
}

func TestProjectedEncodeRootSpan(t *testing.T) {
	// A projection that references nothing in the document prunes the root
	// element itself; materialization must still rebuild the full tree.
	proj := NewProjection()
	proj.Child("unrelated").MarkAll()
	proj.Fingerprint()
	enc, err := StreamEncode(nil, []byte(projDoc), proj)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustReferenceParse(projDoc); !DeepEqual(full, want) {
		t.Fatal("root-span materialization differs from parse")
	}
	partial, _, pruned, err := DecodeProjectedOwned(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.Children) != 0 {
		t.Fatalf("partial tree should be an empty document, got %s", Serialize(partial))
	}
	found := false
	for _, nm := range pruned {
		if nm == "order" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pruned names %v missing root element", pruned)
	}
}

func TestProjectedEncodeNoSpans(t *testing.T) {
	// A projection that covers the whole document produces no spans, and
	// the payload after the projected header matches the v1 encoding.
	proj := NewProjection()
	proj.Child("order").MarkAll()
	proj.Fingerprint()
	enc, err := StreamEncode(nil, []byte(projDoc), proj)
	if err != nil {
		t.Fatal(err)
	}
	partial, fp, pruned, err := DecodeProjectedOwned(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fp != proj.Fingerprint() || len(pruned) != 0 {
		t.Fatalf("fp=%d pruned=%v", fp, pruned)
	}
	if want := mustReferenceParse(projDoc); !DeepEqual(partial, want) {
		t.Fatal("span-free projected decode differs from parse")
	}
}

func TestProjectionFingerprintStability(t *testing.T) {
	a := orderProjection()
	b := orderProjection()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("structurally equal projections must share a fingerprint")
	}
	c := NewProjection()
	c.Child("order").Child("customer").MarkAll()
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different projections should not collide on trivial cases")
	}
}

func TestProjectionLookup(t *testing.T) {
	p := NewProjection()
	o := p.Child("order")
	o.Child("note").MarkAll()
	if _, keep := p.Lookup("other"); keep {
		t.Fatal("unknown child kept")
	}
	sub, keep := p.Lookup("order")
	if !keep || sub == nil {
		t.Fatal("interior child must be kept with a sub-projection")
	}
	if sub2, keep := sub.Lookup("note"); !keep || sub2 != nil {
		t.Fatal("all-marked child must be kept with nil sub-projection")
	}
	all := NewProjection()
	all.MarkAll()
	if sub, keep := all.Lookup("anything"); !keep || sub != nil {
		t.Fatal("All node keeps every child")
	}
}
