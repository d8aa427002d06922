package xquery

// The reference AST interpreter. It walks the expression tree recursively
// on every evaluation and exists only as the oracle the compiled program
// (program.go) is differentially tested against: differential_test.go,
// the golden function corpus, FuzzEvalBackends and the rule-body
// differential (rulebodies_test.go). The product never links it.

import (
	"sort"
	"strings"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// evalInterpreted evaluates by walking the AST of c.
func evalInterpreted(c *Compiled, rt Runtime, opts EvalOptions) (xdm.Sequence, *UpdateList, error) {
	ev := &evaluator{rt: rt, updates: &UpdateList{}, ns: opts.Namespaces}
	ctx := &interpCtx{evalCtx: evalCtx{pos: 1, size: 1}}
	if opts.ContextDoc != nil {
		ctx.item = xdm.Node{N: opts.ContextDoc}
	}
	for name, val := range opts.Vars {
		ctx.vars = &frame{name: name, val: val, parent: ctx.vars}
	}
	seq, err := ev.eval(c.ast, ctx)
	if err != nil {
		return nil, nil, err
	}
	return seq, ev.updates, nil
}

// interpCtx is the interpreter's dynamic context: the focus the built-ins
// see plus the interpreter's own variable scope.
type interpCtx struct {
	evalCtx
	vars *frame
}

type frame struct {
	name   string
	val    xdm.Sequence
	parent *frame
}

func (f *frame) lookup(name string) (xdm.Sequence, bool) {
	for cur := f; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.val, true
		}
	}
	return nil, false
}

func (ctx *interpCtx) withItem(it xdm.Item, pos, size int) *interpCtx {
	return &interpCtx{evalCtx: evalCtx{item: it, pos: pos, size: size}, vars: ctx.vars}
}

func (ctx *interpCtx) bind(name string, val xdm.Sequence) *interpCtx {
	return &interpCtx{evalCtx: ctx.evalCtx, vars: &frame{name: name, val: val, parent: ctx.vars}}
}

func (ctx *interpCtx) contextNode() (*xmldom.Node, error) {
	if ctx.item == nil {
		return nil, dynErr("XPDY0002", "context item is absent")
	}
	n, ok := ctx.item.(xdm.Node)
	if !ok {
		return nil, dynErr("XPTY0020", "context item is not a node")
	}
	return n.N, nil
}

func (ev *evaluator) eval(e xpath.Expr, ctx *interpCtx) (xdm.Sequence, error) {
	switch x := e.(type) {
	case *xpath.Literal:
		return xdm.Singleton(x.Value), nil
	case *xpath.TextLiteral:
		return xdm.Singleton(xdm.NewString(x.Text)), nil
	case *xpath.VarRef:
		if v, ok := ctx.vars.lookup(x.Name); ok {
			return v, nil
		}
		return nil, dynErr("XPDY0002", "unbound variable $%s", x.Name)
	case *xpath.ContextItemExpr:
		if ctx.item == nil {
			return nil, dynErr("XPDY0002", "context item is absent")
		}
		return xdm.Singleton(ctx.item), nil
	case *xpath.SequenceExpr:
		var out xdm.Sequence
		for _, it := range x.Items {
			s, err := ev.eval(it, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case *xpath.IfExpr:
		cond, err := ev.eval(x.Cond, ctx)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBooleanValue(cond)
		if err != nil {
			return nil, err
		}
		if b {
			return ev.eval(x.Then, ctx)
		}
		if x.Else == nil {
			return xdm.EmptySequence, nil
		}
		return ev.eval(x.Else, ctx)
	case *xpath.BinaryExpr:
		return ev.evalBinary(x, ctx)
	case *xpath.ComparisonExpr:
		return ev.evalComparison(x, ctx)
	case *xpath.UnaryExpr:
		return ev.evalUnary(x, ctx)
	case *xpath.PathExpr:
		return ev.evalPath(x, ctx)
	case *xpath.FilterExpr:
		prim, err := ev.eval(x.Primary, ctx)
		if err != nil {
			return nil, err
		}
		return ev.applyPredicates(prim, x.Preds, ctx)
	case *xpath.FuncCall:
		return ev.evalFuncCall(x, ctx)
	case *xpath.FLWORExpr:
		return ev.evalFLWOR(x, ctx)
	case *xpath.QuantifiedExpr:
		return ev.evalQuantified(x, ctx)
	case *xpath.ElementConstructor:
		b := xmldom.NewBuilder()
		if err := ev.buildElement(b, x, ctx); err != nil {
			return nil, err
		}
		doc := b.Done()
		return xdm.Singleton(xdm.Node{N: doc.Root()}), nil
	case *xpath.EnqueueExpr:
		return ev.evalEnqueue(x, ctx)
	case *xpath.ResetExpr:
		return ev.evalReset(x, ctx)
	}
	return nil, dynErr("XQST0000", "unsupported expression %T", e)
}

func (ev *evaluator) evalFuncCall(x *xpath.FuncCall, ctx *interpCtx) (xdm.Sequence, error) {
	f, err := resolveFunction(x.Prefix, x.Local, len(x.Args))
	if err != nil {
		return nil, dynErr("XPST0017", "%v", err)
	}
	args := make([]xdm.Sequence, len(x.Args))
	for i, a := range x.Args {
		s, err := ev.eval(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = s
	}
	return f.call(ev, &ctx.evalCtx, args)
}

func (ev *evaluator) evalBinary(x *xpath.BinaryExpr, ctx *interpCtx) (xdm.Sequence, error) {
	switch x.Op {
	case xpath.BinOr, xpath.BinAnd:
		l, err := ev.eval(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		lb, err := xdm.EffectiveBooleanValue(l)
		if err != nil {
			return nil, err
		}
		if x.Op == xpath.BinOr && lb {
			return xdm.Singleton(xdm.NewBool(true)), nil
		}
		if x.Op == xpath.BinAnd && !lb {
			return xdm.Singleton(xdm.NewBool(false)), nil
		}
		r, err := ev.eval(x.Right, ctx)
		if err != nil {
			return nil, err
		}
		rb, err := xdm.EffectiveBooleanValue(r)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewBool(rb)), nil
	case xpath.BinUnion:
		l, err := ev.eval(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(x.Right, ctx)
		if err != nil {
			return nil, err
		}
		ln, err := l.Nodes()
		if err != nil {
			return nil, dynErr("XPTY0004", "union operands must be nodes")
		}
		rn, err := r.Nodes()
		if err != nil {
			return nil, dynErr("XPTY0004", "union operands must be nodes")
		}
		return xdm.NodeSeq(xmldom.SortDocOrder(append(ln, rn...))), nil
	case xpath.BinRange:
		lo, empty, err := ev.atomicOperand(x.Left, ctx)
		if err != nil || empty {
			return xdm.EmptySequence, err
		}
		hi, empty, err := ev.atomicOperand(x.Right, ctx)
		if err != nil || empty {
			return xdm.EmptySequence, err
		}
		return rangeSeq(lo, hi)
	}
	// Arithmetic.
	l, lEmpty, err := ev.atomicOperand(x.Left, ctx)
	if err != nil || lEmpty {
		return xdm.EmptySequence, err
	}
	r, rEmpty, err := ev.atomicOperand(x.Right, ctx)
	if err != nil || rEmpty {
		return xdm.EmptySequence, err
	}
	return arith(x.Op, l, r)
}

// atomicOperand evaluates an operand expression and atomizes it to at most
// one value; (zero value, true, nil) signals the empty sequence.
func (ev *evaluator) atomicOperand(e xpath.Expr, ctx *interpCtx) (xdm.Value, bool, error) {
	s, err := ev.eval(e, ctx)
	if err != nil {
		return xdm.Value{}, false, err
	}
	if len(s) == 0 {
		return xdm.Value{}, true, nil
	}
	if len(s) > 1 {
		return xdm.Value{}, false, dynErr("XPTY0004", "operand is a sequence of more than one item")
	}
	return xdm.Atomize(s[0]), false, nil
}

func (ev *evaluator) evalUnary(x *xpath.UnaryExpr, ctx *interpCtx) (xdm.Sequence, error) {
	v, empty, err := ev.atomicOperand(x.Operand, ctx)
	if err != nil || empty {
		return xdm.EmptySequence, err
	}
	return negateValue(x.Neg, v)
}

func (ev *evaluator) evalComparison(x *xpath.ComparisonExpr, ctx *interpCtx) (xdm.Sequence, error) {
	l, err := ev.eval(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(x.Right, ctx)
	if err != nil {
		return nil, err
	}
	if x.NodeIs {
		if len(l) == 0 || len(r) == 0 {
			return xdm.EmptySequence, nil
		}
		ln, err := l.Nodes()
		if err != nil || len(ln) != 1 {
			return nil, dynErr("XPTY0004", "'is' requires single nodes")
		}
		rn, err := r.Nodes()
		if err != nil || len(rn) != 1 {
			return nil, dynErr("XPTY0004", "'is' requires single nodes")
		}
		return xdm.Singleton(xdm.NewBool(ln[0] == rn[0])), nil
	}
	if x.General {
		b, err := xdm.CompareGeneral(x.Op, l, r)
		if err != nil {
			return nil, err
		}
		return xdm.Singleton(xdm.NewBool(b)), nil
	}
	// Value comparison: empty operand yields empty sequence.
	if len(l) == 0 || len(r) == 0 {
		return xdm.EmptySequence, nil
	}
	if len(l) > 1 || len(r) > 1 {
		return nil, dynErr("XPTY0004", "value comparison requires single items")
	}
	b, err := xdm.CompareValues(x.Op, xdm.Atomize(l[0]), xdm.Atomize(r[0]))
	if err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.NewBool(b)), nil
}

func (ev *evaluator) evalFLWOR(x *xpath.FLWORExpr, ctx *interpCtx) (xdm.Sequence, error) {
	var tuples []*interpCtx
	var bind func(i int, cur *interpCtx) error
	bind = func(i int, cur *interpCtx) error {
		if i == len(x.Clauses) {
			if x.Where != nil {
				w, err := ev.eval(x.Where, cur)
				if err != nil {
					return err
				}
				b, err := xdm.EffectiveBooleanValue(w)
				if err != nil {
					return err
				}
				if !b {
					return nil
				}
			}
			tuples = append(tuples, cur)
			return nil
		}
		cl := x.Clauses[i]
		if !cl.For {
			v, err := ev.eval(cl.Expr, cur)
			if err != nil {
				return err
			}
			return bind(i+1, cur.bind(cl.Var, v))
		}
		seq, err := ev.eval(cl.Expr, cur)
		if err != nil {
			return err
		}
		for idx, item := range seq {
			next := cur.bind(cl.Var, xdm.Singleton(item))
			if cl.PosVar != "" {
				next = next.bind(cl.PosVar, xdm.Singleton(xdm.NewInteger(int64(idx+1))))
			}
			if err := bind(i+1, next); err != nil {
				return err
			}
		}
		return nil
	}
	if err := bind(0, ctx); err != nil {
		return nil, err
	}

	if len(x.OrderBy) > 0 {
		type keyed struct {
			tuple *interpCtx
			keys  []xdm.Value
			empty []bool
		}
		ks := make([]keyed, len(tuples))
		for i, tp := range tuples {
			k := keyed{tuple: tp, keys: make([]xdm.Value, len(x.OrderBy)), empty: make([]bool, len(x.OrderBy))}
			for j, spec := range x.OrderBy {
				v, empty, err := ev.atomicOperand(spec.Key, tp)
				if err != nil {
					return nil, err
				}
				k.keys[j], k.empty[j] = v, empty
			}
			ks[i] = k
		}
		var sortErr error
		sort.SliceStable(ks, func(a, b int) bool {
			for j, spec := range x.OrderBy {
				ka, kb := ks[a], ks[b]
				if ka.empty[j] && kb.empty[j] {
					continue
				}
				// Empty keys order least.
				if ka.empty[j] || kb.empty[j] {
					less := ka.empty[j]
					if spec.Descending {
						less = !less
					}
					return less
				}
				lt, err := xdm.CompareValues(xdm.OpLt, ka.keys[j], kb.keys[j])
				if err != nil {
					sortErr = err
					return false
				}
				gt, err := xdm.CompareValues(xdm.OpGt, ka.keys[j], kb.keys[j])
				if err != nil {
					sortErr = err
					return false
				}
				if !lt && !gt {
					continue
				}
				if spec.Descending {
					return gt
				}
				return lt
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		tuples = tuples[:0]
		for _, k := range ks {
			tuples = append(tuples, k.tuple)
		}
	}

	var out xdm.Sequence
	for _, tp := range tuples {
		s, err := ev.eval(x.Return, tp)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	if out == nil {
		return xdm.EmptySequence, nil
	}
	return out, nil
}

func (ev *evaluator) evalQuantified(x *xpath.QuantifiedExpr, ctx *interpCtx) (xdm.Sequence, error) {
	result := x.Every                                  // some: false until witness; every: true until counterexample
	var walk func(i int, cur *interpCtx) (bool, error) // returns done
	walk = func(i int, cur *interpCtx) (bool, error) {
		if i == len(x.Bindings) {
			s, err := ev.eval(x.Satisfies, cur)
			if err != nil {
				return false, err
			}
			b, err := xdm.EffectiveBooleanValue(s)
			if err != nil {
				return false, err
			}
			if x.Every && !b {
				result = false
				return true, nil
			}
			if !x.Every && b {
				result = true
				return true, nil
			}
			return false, nil
		}
		seq, err := ev.eval(x.Bindings[i].Expr, cur)
		if err != nil {
			return false, err
		}
		for _, item := range seq {
			done, err := walk(i+1, cur.bind(x.Bindings[i].Var, xdm.Singleton(item)))
			if err != nil || done {
				return done, err
			}
		}
		return false, nil
	}
	if _, err := walk(0, ctx); err != nil {
		return nil, err
	}
	return xdm.Singleton(xdm.NewBool(result)), nil
}

// --- paths ---

func (ev *evaluator) evalPath(x *xpath.PathExpr, ctx *interpCtx) (xdm.Sequence, error) {
	var current xdm.Sequence
	switch {
	case x.Rooted:
		n, err := ctx.contextNode()
		if err != nil {
			return nil, err
		}
		current = xdm.Singleton(xdm.Node{N: n.Document()})
	case x.Start != nil:
		s, err := ev.eval(x.Start, ctx)
		if err != nil {
			return nil, err
		}
		current = s
	default:
		if ctx.item == nil {
			return nil, dynErr("XPDY0002", "context item is absent")
		}
		current = xdm.Singleton(ctx.item)
	}

	steps := x.Steps
	if x.Descend {
		steps = append([]xpath.Step{{Axis: xpath.AxisDescendantOrSelf, Test: xpath.NodeTest{Kind: xpath.TestNode}}}, steps...)
	}
	for si, st := range steps {
		nodes, err := current.Nodes()
		if err != nil {
			return nil, dynErr("XPTY0019", "path step applied to non-node")
		}
		var results []*xmldom.Node
		var atomics xdm.Sequence
		for ci, cn := range nodes {
			var cands xdm.Sequence
			if st.Primary != nil {
				// Primary step: evaluate per context item.
				pctx := ctx.withItem(xdm.Node{N: cn}, ci+1, len(nodes))
				cands, err = ev.eval(st.Primary, pctx)
				if err != nil {
					return nil, err
				}
			} else {
				axisCands := ev.axisNodes(st.Axis, cn)
				cands = xdm.NodeSeq(ev.filterTest(axisCands, st.Axis, st.Test))
			}
			filtered, err := ev.applyPredicates(cands, st.Preds, ctx)
			if err != nil {
				return nil, err
			}
			for _, it := range filtered {
				switch v := it.(type) {
				case xdm.Node:
					results = append(results, v.N)
				default:
					atomics = append(atomics, it)
				}
			}
		}
		if len(atomics) > 0 {
			if si != len(steps)-1 || len(results) > 0 {
				return nil, dynErr("XPTY0018", "path step yields mixed nodes and atomic values")
			}
			return atomics, nil
		}
		current = xdm.NodeSeq(xmldom.SortDocOrder(results))
	}
	return current, nil
}

// axisNodes returns the nodes on the axis from n, in axis order (reverse
// axes yield nearest-first so positional predicates see axis positions).
func (ev *evaluator) axisNodes(axis xpath.Axis, n *xmldom.Node) []*xmldom.Node {
	switch axis {
	case xpath.AxisChild:
		return n.Children
	case xpath.AxisAttribute:
		return n.Attrs
	case xpath.AxisSelf:
		return []*xmldom.Node{n}
	case xpath.AxisParent:
		if n.Parent == nil {
			return nil
		}
		return []*xmldom.Node{n.Parent}
	case xpath.AxisDescendant:
		var out []*xmldom.Node
		collectDescendants(n, &out)
		return out
	case xpath.AxisDescendantOrSelf:
		out := []*xmldom.Node{n}
		collectDescendants(n, &out)
		return out
	case xpath.AxisAncestor:
		var out []*xmldom.Node
		for cur := n.Parent; cur != nil; cur = cur.Parent {
			out = append(out, cur)
		}
		return out
	case xpath.AxisAncestorOrSelf:
		out := []*xmldom.Node{n}
		for cur := n.Parent; cur != nil; cur = cur.Parent {
			out = append(out, cur)
		}
		return out
	case xpath.AxisFollowingSibling:
		if n.Parent == nil {
			return nil
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				return sibs[i+1:]
			}
		}
		return nil
	case xpath.AxisPrecedingSibling:
		if n.Parent == nil {
			return nil
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				// Reverse order: nearest sibling first.
				out := make([]*xmldom.Node, 0, i)
				for j := i - 1; j >= 0; j-- {
					out = append(out, sibs[j])
				}
				return out
			}
		}
		return nil
	}
	return nil
}

func collectDescendants(n *xmldom.Node, out *[]*xmldom.Node) {
	for _, c := range n.Children {
		*out = append(*out, c)
		collectDescendants(c, out)
	}
}

// filterTest applies the node test. Per the paper's convention that
// applications declare a default namespace and omit prefixes, an unprefixed
// name test matches the local name in any namespace; a prefixed test
// resolves the prefix against the statically supplied namespace map.
func (ev *evaluator) filterTest(cands []*xmldom.Node, axis xpath.Axis, test xpath.NodeTest) []*xmldom.Node {
	principal := xmldom.ElementNode
	if axis == xpath.AxisAttribute {
		principal = xmldom.AttributeNode
	}
	var out []*xmldom.Node
	for _, c := range cands {
		if ev.matchTest(c, principal, test) {
			out = append(out, c)
		}
	}
	return out
}

func (ev *evaluator) matchTest(n *xmldom.Node, principal xmldom.NodeKind, test xpath.NodeTest) bool {
	switch test.Kind {
	case xpath.TestNode:
		return true
	case xpath.TestText:
		return n.Kind == xmldom.TextNode
	case xpath.TestComment:
		return n.Kind == xmldom.CommentNode
	case xpath.TestDocument:
		return n.Kind == xmldom.DocumentNode
	case xpath.TestAnyName:
		return n.Kind == principal
	case xpath.TestElement:
		if n.Kind != xmldom.ElementNode {
			return false
		}
		if test.Name.Local == "" {
			return true
		}
		return ev.matchName(n, test.Name)
	case xpath.TestAttribute:
		if n.Kind != xmldom.AttributeNode {
			return false
		}
		if test.Name.Local == "" {
			return true
		}
		return ev.matchName(n, test.Name)
	case xpath.TestName:
		if n.Kind != principal {
			return false
		}
		return ev.matchName(n, test.Name)
	}
	return false
}

func (ev *evaluator) matchName(n *xmldom.Node, name xmldom.Name) bool {
	if n.Name.Local != name.Local {
		return false
	}
	if name.Prefix == "" {
		return true // lax namespace matching, see doc comment
	}
	uri, ok := ev.ns[name.Prefix]
	return ok && n.Name.Space == uri
}

// applyPredicates filters a sequence through predicate expressions,
// implementing positional semantics: a predicate evaluating to a single
// number keeps the item whose position equals that number.
func (ev *evaluator) applyPredicates(seq xdm.Sequence, preds []xpath.Expr, ctx *interpCtx) (xdm.Sequence, error) {
	cur := seq
	for _, pred := range preds {
		size := len(cur)
		var next xdm.Sequence
		for i, it := range cur {
			pctx := ctx.withItem(it, i+1, size)
			r, err := ev.eval(pred, pctx)
			if err != nil {
				return nil, err
			}
			keep := false
			if len(r) == 1 {
				if v, ok := r[0].(xdm.Value); ok && v.T.IsNumeric() {
					keep = v.Number() == float64(i+1)
					if keep {
						next = append(next, it)
					}
					continue
				}
			}
			keep, err = xdm.EffectiveBooleanValue(r)
			if err != nil {
				return nil, err
			}
			if keep {
				next = append(next, it)
			}
		}
		cur = next
	}
	if cur == nil {
		return xdm.EmptySequence, nil
	}
	return cur, nil
}

// --- constructors ---

func (ev *evaluator) buildElement(b *xmldom.Builder, x *xpath.ElementConstructor, ctx *interpCtx) error {
	b.StartElement(x.Name)
	for _, ac := range x.Attrs {
		var sb strings.Builder
		for _, part := range ac.Parts {
			if tl, ok := part.(*xpath.TextLiteral); ok {
				sb.WriteString(tl.Text)
				continue
			}
			s, err := ev.eval(part, ctx)
			if err != nil {
				return err
			}
			vals := xdm.AtomizeSeq(s)
			for i, v := range vals {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(v.StringValue())
			}
		}
		b.Attribute(ac.Name, sb.String())
	}
	for _, content := range x.Content {
		switch ce := content.(type) {
		case *xpath.TextLiteral:
			b.Text(ce.Text)
		case *xpath.ElementConstructor:
			if err := ev.buildElement(b, ce, ctx); err != nil {
				return err
			}
		default:
			s, err := ev.eval(content, ctx)
			if err != nil {
				return err
			}
			prevAtomic := false
			for _, it := range s {
				switch v := it.(type) {
				case xdm.Node:
					b.Subtree(v.N)
					prevAtomic = false
				case xdm.Value:
					if prevAtomic {
						b.Text(" ")
					}
					b.Text(v.StringValue())
					prevAtomic = true
				}
			}
		}
	}
	b.EndElement()
	return nil
}

// --- update primitives ---

func (ev *evaluator) evalEnqueue(x *xpath.EnqueueExpr, ctx *interpCtx) (xdm.Sequence, error) {
	what, err := ev.eval(x.What, ctx)
	if err != nil {
		return nil, err
	}
	if len(what) != 1 {
		return nil, dynErr("DQTY0001", "do enqueue requires exactly one item, got %d", len(what))
	}
	n, ok := what[0].(xdm.Node)
	if !ok {
		return nil, dynErr("DQTY0002", "do enqueue requires an element or document node, got %s", xdm.Describe(what[0]))
	}
	var doc *xmldom.Node
	switch n.N.Kind {
	case xmldom.DocumentNode:
		doc = n.N.Clone()
	case xmldom.ElementNode:
		doc = n.N.CloneAsDocument()
	default:
		return nil, dynErr("DQTY0002", "do enqueue requires an element or document node, got %s", n.N.Kind)
	}
	up := &EnqueueUpdate{Queue: x.Queue, Doc: doc}
	if len(x.Props) > 0 {
		up.Props = make(map[string]xdm.Value, len(x.Props))
		for _, ps := range x.Props {
			v, empty, err := ev.atomicOperand(ps.Value, ctx)
			if err != nil {
				return nil, err
			}
			if empty {
				return nil, dynErr("DQTY0003", "property %q value is the empty sequence", ps.Name)
			}
			up.Props[ps.Name] = v
		}
	}
	ev.updates.Append(up)
	return xdm.EmptySequence, nil
}

func (ev *evaluator) evalReset(x *xpath.ResetExpr, ctx *interpCtx) (xdm.Sequence, error) {
	up := &ResetUpdate{Slicing: x.Slicing}
	if x.Key == nil {
		up.Implicit = true
	} else {
		v, empty, err := ev.atomicOperand(x.Key, ctx)
		if err != nil {
			return nil, err
		}
		if empty {
			return nil, dynErr("DQTY0004", "do reset key is the empty sequence")
		}
		up.Key = v
	}
	ev.updates.Append(up)
	return xdm.EmptySequence, nil
}
