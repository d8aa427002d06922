package xquery

import (
	"testing"

	"demaq/internal/xmldom"
)

func buildProj(t *testing.T, srcs ...string) *xmldom.Projection {
	t.Helper()
	b := NewProjectionBuilder()
	for _, src := range srcs {
		b.Add(MustCompile(src, CompileOptions{}))
	}
	return b.Build()
}

func TestProjectionBuilderChildPaths(t *testing.T) {
	p := buildProj(t, `string(/order/id)`)
	if p == nil {
		t.Fatal("child-path expression must yield a projection")
	}
	o, keep := p.Lookup("order")
	if !keep || o == nil {
		t.Fatal("order must be a kept interior node")
	}
	if sub, keep := o.Lookup("id"); !keep || sub != nil {
		t.Fatal("id must be kept with its whole subtree (value read)")
	}
	if _, keep := o.Lookup("items"); keep {
		t.Fatal("items is not referenced and must be pruned")
	}
}

func TestProjectionBuilderExistenceIsShellOnly(t *testing.T) {
	// exists() needs the element to be present in the partial tree, but not
	// its content: the endpoint must be a kept spine node, not marked All.
	p := buildProj(t, `exists(/order/items)`)
	if p == nil {
		t.Fatal("want a projection")
	}
	o, _ := p.Lookup("order")
	if o == nil {
		t.Fatal("order must be an interior node")
	}
	sub, keep := o.Lookup("items")
	if !keep {
		t.Fatal("items must be kept for the existence test")
	}
	if sub == nil {
		t.Fatal("items content is never read; it should not be marked All")
	}
}

func TestProjectionBuilderFLWORAndAttributes(t *testing.T) {
	p := buildProj(t, `for $i in /order/items/item where $i/qty > 1 return string($i/@sku)`)
	if p == nil {
		t.Fatal("want a projection")
	}
	o, _ := p.Lookup("order")
	items, keep := o.Lookup("items")
	if !keep || items == nil {
		t.Fatal("items must be a kept interior node")
	}
	item, keep := items.Lookup("item")
	if !keep || item == nil {
		t.Fatal("item must be a kept interior node (attributes ride along)")
	}
	if sub, keep := item.Lookup("qty"); !keep || sub != nil {
		t.Fatal("qty is compared by value and must be marked All")
	}
}

func TestProjectionBuilderDescentIsImprecise(t *testing.T) {
	if p := buildProj(t, `string(//id)`); p != nil {
		t.Fatal("leading // keeps everything; Build must return nil")
	}
	if p := buildProj(t, `string(/order//id)`); p != nil {
		// /order//id marks order All, which covers the whole document in
		// practice — the builder collapses that to full ingest too? No:
		// order All but the root still distinguishes other roots. A
		// projection keeping order entirely is still valid.
		o, _ := p.Lookup("order")
		_ = o
	}
}

func TestProjectionBuilderInnerDescentMarksSubtree(t *testing.T) {
	p := buildProj(t, `string(/order//id)`)
	if p == nil {
		t.Fatal("inner descent below a named child is still a projection")
	}
	if sub, keep := p.Lookup("order"); !keep || sub != nil {
		t.Fatal("order must be marked All for an inner // descent")
	}
}

func TestProjectionBuilderExternalVarImprecise(t *testing.T) {
	b := NewProjectionBuilder()
	b.Add(MustCompile(`string($doc/a/b)`, CompileOptions{ExtraVars: []string{"doc"}}))
	// Nothing else is read, so only imprecision can make the projection nil.
	if b.Build() != nil {
		t.Fatal("externally bound variables must make the analysis imprecise: nil projection")
	}
}

func TestProjectionBuilderEnqueueConsumes(t *testing.T) {
	p := buildProj(t, `if (exists(/order/urgent)) then do enqueue /order/items into out else ()`)
	if p == nil {
		t.Fatal("want a projection")
	}
	o, _ := p.Lookup("order")
	if sub, keep := o.Lookup("items"); !keep || sub != nil {
		t.Fatal("enqueued subtree is serialized and must be marked All")
	}
	if sub, keep := o.Lookup("urgent"); !keep || sub == nil {
		t.Fatal("existence-tested element must be kept as a spine node")
	}
}

func TestProjectionBuilderUnionAndParent(t *testing.T) {
	p := buildProj(t, `string((/order/a | /order/b)/c)`, `string(/order/d/../e)`)
	if p == nil {
		t.Fatal("want a projection")
	}
	o, _ := p.Lookup("order")
	for _, spine := range []string{"a", "b", "d"} {
		if sub, keep := o.Lookup(spine); !keep || sub == nil {
			t.Fatalf("%s must be a kept spine node", spine)
		}
	}
	a, _ := o.Lookup("a")
	if sub, keep := a.Lookup("c"); !keep || sub != nil {
		t.Fatal("c under a must be marked All")
	}
	if sub, keep := o.Lookup("e"); !keep || sub != nil {
		t.Fatal("e (navigated via ..) must be marked All")
	}
}

func TestProjectionBuilderQueueReadsUnconstrained(t *testing.T) {
	// Navigation on qs:queue() results concerns fully materialized
	// documents, not the projected context document.
	p := buildProj(t, `string(qs:queue("other")/x/y)`, `string(/order/id)`)
	if p == nil {
		t.Fatal("want a projection")
	}
	if _, keep := p.Lookup("x"); keep {
		t.Fatal("qs:queue navigation must not widen the context projection")
	}
}

func TestProjectionBuilderMessageIsContext(t *testing.T) {
	p := buildProj(t, `string(qs:message()/order/total)`)
	if p == nil {
		t.Fatal("want a projection")
	}
	o, keep := p.Lookup("order")
	if !keep || o == nil {
		t.Fatal("qs:message() must be tracked like the context root")
	}
	if sub, keep := o.Lookup("total"); !keep || sub != nil {
		t.Fatal("total must be marked All")
	}
}
