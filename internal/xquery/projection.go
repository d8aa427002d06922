package xquery

import (
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// ProjectionBuilder computes the static path projection of a queue: the
// union, over every compiled expression that can run against the queue's
// messages (rule bodies and property definitions), of the element paths the
// expression can reference on the context document. The streaming encoder
// (xmldom.StreamEncode) uses the result to avoid materializing subtrees no
// expression will ever read.
//
// The abstraction is deliberately simple and errs toward keeping data:
//
//   - Navigating to an element materializes it (its name, attributes and
//     text children) but not its element children — a trie "spine" node.
//     Existence tests, counting, name access and attribute reads are all
//     satisfied by spine nodes.
//   - Reading a node's VALUE (atomization in comparisons and arithmetic,
//     string()/number() and friends, serialization into constructors or
//     do-enqueue) requires the full subtree: the endpoint is marked All.
//   - Descendant axes and wildcard child steps mark the current nodes All:
//     the trie cannot express "any depth" or "any name" more precisely.
//   - A variable the analysis cannot see the binding of (CompileOptions.
//     ExtraVars) makes the whole analysis imprecise: Build returns nil and
//     the queue falls back to full ingest.
//
// Values flowing out of qs:queue(), qs:slice() and collection() are ignored:
// the engine materializes those documents fully (msgstore.Store.Doc), so
// navigation on them is never constrained by this queue's projection.
// qs:message() returns the context document and is tracked like '/'.
type ProjectionBuilder struct {
	root    *xmldom.Projection
	parent  map[*xmldom.Projection]*xmldom.Projection
	precise bool
}

// NewProjectionBuilder returns a builder with an empty projection.
func NewProjectionBuilder() *ProjectionBuilder {
	return &ProjectionBuilder{
		root:    xmldom.NewProjection(),
		parent:  map[*xmldom.Projection]*xmldom.Projection{},
		precise: true,
	}
}

// aval abstracts a sequence value: the trie positions of element/document
// nodes it may contain, and the owner elements of attribute nodes it may
// contain. Attribute data is always materialized with its element, so
// consuming an attribute value never widens the projection, but the owners
// must be tracked for parent-axis navigation out of an attribute.
type aval struct {
	nodes []*xmldom.Projection
	attrs []*xmldom.Projection // owners of attribute nodes
}

func (v aval) union(o aval) aval {
	return aval{nodes: mergeNodes(v.nodes, o.nodes), attrs: mergeNodes(v.attrs, o.attrs)}
}

func mergeNodes(a, b []*xmldom.Projection) []*xmldom.Projection {
	if len(b) == 0 {
		return a
	}
	out := a
	for _, n := range b {
		dup := false
		for _, x := range out {
			if x == n {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, n)
		}
	}
	return out
}

// Add incorporates one compiled expression evaluated with the message
// document as the context item. The expression's result is treated as
// consumed (property values are atomized; rule results may be serialized),
// and every value read inside it widens the projection.
func (b *ProjectionBuilder) Add(c *Compiled) {
	if c == nil {
		return
	}
	ctx := aval{nodes: []*xmldom.Projection{b.root}}
	b.consume(b.analyze(c.ast, map[string]aval{}, ctx))
}

// Build finalizes the projection. It returns nil when the analysis was
// imprecise or when the projection would keep the whole document anyway —
// in both cases the caller should use plain (unprojected) ingest.
func (b *ProjectionBuilder) Build() *xmldom.Projection {
	if !b.precise || b.root.All() {
		return nil
	}
	b.root.Fingerprint() // freeze before concurrent sharing
	return b.root
}

func (b *ProjectionBuilder) child(n *xmldom.Projection, local string) *xmldom.Projection {
	if n.All() {
		return n // everything below is already kept
	}
	c := n.Child(local)
	if _, ok := b.parent[c]; !ok {
		b.parent[c] = n
	}
	return c
}

// consume marks every element position in v as fully kept: its value is
// being read, so the whole subtree must be materialized.
func (b *ProjectionBuilder) consume(v aval) {
	for _, n := range v.nodes {
		n.MarkAll()
	}
}

func (b *ProjectionBuilder) analyzeConsume(e xpath.Expr, env map[string]aval, ctx aval) {
	b.consume(b.analyze(e, env, ctx))
}

func (b *ProjectionBuilder) analyze(e xpath.Expr, env map[string]aval, ctx aval) aval {
	switch x := e.(type) {
	case nil:
		return aval{}
	case *xpath.SequenceExpr:
		var out aval
		for _, it := range x.Items {
			out = out.union(b.analyze(it, env, ctx))
		}
		return out
	case *xpath.FLWORExpr:
		scope := copyEnv(env)
		for _, cl := range x.Clauses {
			v := b.analyze(cl.Expr, scope, ctx)
			scope[cl.Var] = v
			if cl.PosVar != "" {
				scope[cl.PosVar] = aval{}
			}
		}
		if x.Where != nil {
			// Effective boolean value: existence only, no value read.
			b.analyze(x.Where, scope, ctx)
		}
		for _, os := range x.OrderBy {
			// Sort keys are atomized.
			b.analyzeConsume(os.Key, scope, ctx)
		}
		return b.analyze(x.Return, scope, ctx)
	case *xpath.QuantifiedExpr:
		scope := copyEnv(env)
		for _, cl := range x.Bindings {
			scope[cl.Var] = b.analyze(cl.Expr, scope, ctx)
		}
		b.analyze(x.Satisfies, scope, ctx)
		return aval{}
	case *xpath.IfExpr:
		b.analyze(x.Cond, env, ctx) // EBV
		return b.analyze(x.Then, env, ctx).union(b.analyze(x.Else, env, ctx))
	case *xpath.BinaryExpr:
		l := b.analyze(x.Left, env, ctx)
		r := b.analyze(x.Right, env, ctx)
		switch x.Op {
		case xpath.BinUnion:
			return l.union(r) // node-preserving
		case xpath.BinOr, xpath.BinAnd:
			return aval{} // EBV of operands
		default:
			// Arithmetic and range atomize both operands.
			b.consume(l)
			b.consume(r)
			return aval{}
		}
	case *xpath.ComparisonExpr:
		l := b.analyze(x.Left, env, ctx)
		r := b.analyze(x.Right, env, ctx)
		if !x.NodeIs { // "is" compares identity, no value read
			b.consume(l)
			b.consume(r)
		}
		return aval{}
	case *xpath.UnaryExpr:
		b.analyzeConsume(x.Operand, env, ctx)
		return aval{}
	case *xpath.PathExpr:
		v := ctx
		if x.Start != nil {
			v = b.analyze(x.Start, env, ctx)
		} else if x.Rooted {
			v = aval{nodes: []*xmldom.Projection{b.root}}
		}
		if x.Descend {
			// Leading //: any depth below the start.
			b.consume(v)
		}
		for _, st := range x.Steps {
			v = b.step(st, env, v)
		}
		return v
	case *xpath.FilterExpr:
		v := b.analyze(x.Primary, env, ctx)
		for _, p := range x.Preds {
			b.analyze(p, env, v) // EBV per item
		}
		return v
	case *xpath.VarRef:
		v, ok := env[x.Name]
		if !ok {
			// Bound outside the analyzed expression (ExtraVars): could hold
			// any part of the document.
			b.precise = false
			return aval{}
		}
		return v
	case *xpath.ContextItemExpr:
		return ctx
	case *xpath.Literal, *xpath.TextLiteral:
		return aval{}
	case *xpath.FuncCall:
		return b.funcCall(x, env, ctx)
	case *xpath.ElementConstructor:
		for _, a := range x.Attrs {
			for _, part := range a.Parts {
				b.analyzeConsume(part, env, ctx)
			}
		}
		for _, ct := range x.Content {
			// Content nodes are deep-copied into the constructed tree.
			b.analyzeConsume(ct, env, ctx)
		}
		return aval{} // the constructed tree is not part of the message
	case *xpath.EnqueueExpr:
		b.analyzeConsume(x.What, env, ctx) // serialized on commit
		for _, p := range x.Props {
			b.analyzeConsume(p.Value, env, ctx)
		}
		return aval{}
	case *xpath.ResetExpr:
		b.analyzeConsume(x.Key, env, ctx)
		return aval{}
	default:
		b.precise = false
		return aval{}
	}
}

func (b *ProjectionBuilder) step(st xpath.Step, env map[string]aval, v aval) aval {
	if st.Primary != nil {
		out := b.analyze(st.Primary, env, v)
		for _, p := range st.Preds {
			b.analyze(p, env, out)
		}
		return out
	}
	var out aval
	switch st.Axis {
	case xpath.AxisChild:
		switch st.Test.Kind {
		case xpath.TestName:
			for _, n := range v.nodes {
				out.nodes = mergeNodes(out.nodes, []*xmldom.Projection{b.child(n, st.Test.Name.Local)})
			}
		case xpath.TestElement:
			if st.Test.Name.Local != "" {
				for _, n := range v.nodes {
					out.nodes = mergeNodes(out.nodes, []*xmldom.Projection{b.child(n, st.Test.Name.Local)})
				}
				break
			}
			fallthrough
		case xpath.TestAnyName, xpath.TestNode:
			// Any-name children: the trie cannot enumerate them.
			b.consume(v)
			out.nodes = v.nodes
		case xpath.TestText, xpath.TestComment:
			// Text and comment children are always materialized alongside
			// their (materialized) parent; they carry no element positions.
		case xpath.TestAttribute:
			out.attrs = v.nodes
		case xpath.TestDocument:
			// child::document-node() never matches.
		}
	case xpath.AxisDescendant, xpath.AxisDescendantOrSelf:
		// Any depth: keep the whole subtree of every current node.
		b.consume(v)
		out.nodes = v.nodes
	case xpath.AxisSelf:
		out = v
	case xpath.AxisParent:
		out.nodes = v.attrs // parent of an attribute is its owner
		for _, n := range v.nodes {
			if p := b.parent[n]; p != nil {
				out.nodes = mergeNodes(out.nodes, []*xmldom.Projection{p})
			}
		}
	case xpath.AxisAncestor, xpath.AxisAncestorOrSelf:
		if st.Axis == xpath.AxisAncestorOrSelf {
			out = out.union(v)
		}
		seed := mergeNodes(append([]*xmldom.Projection(nil), v.attrs...), v.nodes)
		for _, n := range seed {
			for p := b.parent[n]; p != nil; p = b.parent[p] {
				out.nodes = mergeNodes(out.nodes, []*xmldom.Projection{p})
			}
			out.nodes = mergeNodes(out.nodes, []*xmldom.Projection{b.root})
		}
	case xpath.AxisAttribute:
		out.attrs = v.nodes // attributes ride along with their element
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		for _, n := range v.nodes {
			p := b.parent[n]
			if p == nil {
				continue // root element has no element siblings
			}
			switch st.Test.Kind {
			case xpath.TestName:
				out.nodes = mergeNodes(out.nodes, []*xmldom.Projection{b.child(p, st.Test.Name.Local)})
			case xpath.TestText, xpath.TestComment:
				// Always materialized with the parent.
			default:
				p.MarkAll()
				out.nodes = mergeNodes(out.nodes, []*xmldom.Projection{p})
			}
		}
	default:
		b.precise = false
	}
	for _, p := range st.Preds {
		b.analyze(p, env, out)
	}
	return out
}

func (b *ProjectionBuilder) funcCall(x *xpath.FuncCall, env map[string]aval, ctx aval) aval {
	name := x.Local
	if x.Prefix != "" {
		name = x.Prefix + ":" + x.Local
	}
	args := make([]aval, len(x.Args))
	for i, a := range x.Args {
		args[i] = b.analyze(a, env, ctx)
	}
	switch name {
	case "exists", "empty", "count", "not", "boolean",
		"name", "local-name", "namespace-uri":
		// Shell reads: satisfied by a materialized node, no value needed.
		return aval{}
	case "position", "last", "true", "false", "current-dateTime":
		return aval{}
	case "root":
		return aval{nodes: []*xmldom.Projection{b.root}}
	case "qs:message":
		return aval{nodes: []*xmldom.Projection{b.root}}
	case "qs:queue", "qs:slice", "collection":
		// Other documents are materialized fully by the engine; this
		// queue's projection does not constrain them.
		for _, a := range args {
			b.consume(a)
		}
		return aval{}
	case "qs:property", "qs:slicekey":
		for _, a := range args {
			b.consume(a)
		}
		return aval{}
	case "reverse", "subsequence":
		// Node-preserving: the result draws nodes from the first argument.
		for _, a := range args[1:] {
			b.consume(a)
		}
		if len(args) > 0 {
			return args[0]
		}
		return aval{}
	case "string", "number", "string-length", "normalize-space":
		if len(args) == 0 {
			b.consume(ctx) // zero-arg form reads the context item's value
			return aval{}
		}
	}
	// Default: the function atomizes or serializes its arguments. Returning
	// the union of node-bearing arguments keeps navigation on the result
	// sound (the nodes are marked All, so anything below them is kept).
	var out aval
	for _, a := range args {
		b.consume(a)
		out = out.union(a)
	}
	return out
}

func copyEnv(env map[string]aval) map[string]aval {
	out := make(map[string]aval, len(env)+4)
	for k, v := range env {
		out[k] = v
	}
	return out
}
