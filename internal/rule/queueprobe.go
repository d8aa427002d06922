package rule

import (
	"demaq/internal/xdm"
	"demaq/internal/xpath"
	"demaq/internal/xquery"
)

// QueueRead is one qs:queue() call of a rule body and the access path the
// planner chose for it.
type QueueRead struct {
	// Queue is the literal queue name; "" for the argument-less call of a
	// slicing rule (the queue of the message being processed) and for a
	// computed argument.
	Queue string
	// Computed is set when the argument is not a string literal: the queue
	// is known only when the body runs.
	Computed bool
	// Probe names the property whose index answers the read; "" means the
	// read fetches the whole queue.
	Probe string
}

// planQueueReads lists a rule body's qs:queue() reads in source order and
// plans the index-probed access path of Sec. 4.4.1 for each read that
// qualifies (nothing qualifies under Options.Unoptimized). A read
// qualifies when all of these hold:
//
//   - the body filters the call's result by a general comparison R = E, as
//     the first predicate: directly (qs:queue("Q")[R = E]), after axis steps
//     without predicates (qs:queue("Q")/a[R = E]), or on a let variable
//     bound to such a read and used exactly once;
//   - R is a path relative to (or rooted at the root of) the filtered node:
//     axis steps without predicates ending in an element name test N;
//   - Q binds a fixed xs:string property p whose value expression is //N;
//   - E does not depend on the focus (xquery.FocusFree), and, in the let
//     form, each of its variables is bound at the read (in a chain of lets,
//     at the let whose expression holds the call) to what it is bound to at
//     the filter.
//
// R then selects only elements named N of the message's own document. Such
// a message survives the filter only if one of them has the string value
// string(E): the message's p equals it, or its //N yielded more than one
// node (property.MultiValued marks those). The filter stays on top of the
// candidates, so the result is exact.
func planQueueReads(body xpath.Expr, prog *Program) ([]xquery.QueueProbe, []QueueRead) {
	pl := &probePlanner{prog: prog, probes: map[*xpath.FuncCall]xquery.QueueProbe{}}
	if !prog.opts.Unoptimized {
		pl.visit(body, nil)
	}
	var probes []xquery.QueueProbe
	var reads []QueueRead
	xpath.Inspect(body, func(e xpath.Expr) bool {
		fc, ok := e.(*xpath.FuncCall)
		if !ok || fc.Prefix != "qs" || fc.Local != "queue" {
			return true
		}
		var r QueueRead
		if len(fc.Args) == 1 {
			var literal bool
			r.Queue, literal = stringLiteral(fc.Args[0])
			r.Computed = !literal
		}
		if qp, ok := pl.probes[fc]; ok {
			probes = append(probes, qp)
			r.Probe = qp.Prop
		}
		reads = append(reads, r)
		return true
	})
	return probes, reads
}

// probeScope maps the variables in scope to their binders.
type probeScope map[string]*binder

func (sc probeScope) with(name string, b *binder) probeScope {
	out := make(probeScope, len(sc)+1)
	for k, v := range sc {
		out[k] = v
	}
	out[name] = b
	return out
}

// binder is one variable binding. A let of a qs:queue read whose variable
// is used once carries the read and the scope at the call: that of the let
// whose expression holds it.
type binder struct {
	read  *xpath.FuncCall
	scope probeScope
}

type probePlanner struct {
	prog   *Program
	probes map[*xpath.FuncCall]xquery.QueueProbe
}

// visit walks e, tracking the variables in scope, and plans a probe at
// every filter of a queue read.
func (pl *probePlanner) visit(e xpath.Expr, sc probeScope) {
	xpath.Inspect(e, func(e xpath.Expr) bool {
		switch x := e.(type) {
		case *xpath.FLWORExpr:
			inner := sc
			for i, cl := range x.Clauses {
				pl.visit(cl.Expr, inner)
				b := &binder{}
				if !cl.For {
					if read, let := pl.source(cl.Expr, inner); read != nil && usedOnce(x, i) {
						// A let of a let variable passes on the scope of
						// the let that holds the read: the key is lowered
						// at the read.
						b.read, b.scope = read, inner
						if let != nil {
							b.scope = let.scope
						}
					}
				}
				inner = inner.with(cl.Var, b)
				if cl.PosVar != "" {
					inner = inner.with(cl.PosVar, &binder{})
				}
			}
			pl.visit(x.Where, inner)
			for _, os := range x.OrderBy {
				pl.visit(os.Key, inner)
			}
			pl.visit(x.Return, inner)
			return false
		case *xpath.QuantifiedExpr:
			inner := sc
			for _, b := range x.Bindings {
				pl.visit(b.Expr, inner)
				inner = inner.with(b.Var, &binder{})
			}
			pl.visit(x.Satisfies, inner)
			return false
		case *xpath.FilterExpr:
			if len(x.Preds) > 0 {
				pl.site(x.Primary, x.Preds[0], sc)
			}
		case *xpath.PathExpr:
			if x.Start == nil {
				break
			}
			for _, st := range x.Steps {
				if st.Primary != nil {
					break
				}
				if len(st.Preds) > 0 {
					pl.site(x.Start, st.Preds[0], sc)
					break
				}
			}
		}
		return true
	})
}

// source reports the qs:queue("Q") read that e passes on unfiltered: the
// call itself, axis steps without predicates over it, or a variable bound
// to it by a let whose variable is used once (let is then that binder).
func (pl *probePlanner) source(e xpath.Expr, sc probeScope) (read *xpath.FuncCall, let *binder) {
	switch x := e.(type) {
	case *xpath.FuncCall:
		if x.Prefix == "qs" && x.Local == "queue" && len(x.Args) == 1 {
			if _, ok := stringLiteral(x.Args[0]); ok {
				return x, nil
			}
		}
	case *xpath.PathExpr:
		if x.Start != nil && pureSteps(x.Steps) {
			return pl.source(x.Start, sc)
		}
	case *xpath.VarRef:
		if b := sc[x.Name]; b != nil && b.read != nil {
			return b.read, b
		}
	}
	return nil, nil
}

// site plans a probe for the read that src passes on, filtered by pred.
func (pl *probePlanner) site(src, pred xpath.Expr, sc probeScope) {
	read, let := pl.source(src, sc)
	if read == nil {
		return
	}
	if _, done := pl.probes[read]; done {
		return
	}
	cmp, ok := pred.(*xpath.ComparisonExpr)
	if !ok || !cmp.General || cmp.NodeIs || cmp.Op != xdm.OpEq {
		return
	}
	r, key := cmp.Left, cmp.Right
	name, ok := elementPathName(r)
	if !ok || !xquery.FocusFree(key) {
		r, key = key, r
		if name, ok = elementPathName(r); !ok || !xquery.FocusFree(key) {
			return
		}
	}
	if let != nil {
		// The key is evaluated at the read: each of its variables must be
		// bound there to what it is bound to here.
		bound := true
		xpath.Inspect(key, func(e xpath.Expr) bool {
			if v, ok := e.(*xpath.VarRef); ok && (let.scope[v.Name] == nil || let.scope[v.Name] != sc[v.Name]) {
				bound = false
			}
			return bound
		})
		if !bound {
			return
		}
	}
	queue, _ := stringLiteral(read.Args[0])
	if prop := pl.prog.indexedProperty(queue, name); prop != "" {
		pl.probes[read] = xquery.QueueProbe{Call: read, Prop: prop, Key: key}
	}
}

// usedOnce reports whether the variable of clause i is referenced exactly
// once in the rest of the FLWOR expression, where no binder may reuse its
// name.
func usedOnce(x *xpath.FLWORExpr, i int) bool {
	name := x.Clauses[i].Var
	uses, shadowed := 0, false
	count := func(e xpath.Expr) {
		xpath.Inspect(e, func(e xpath.Expr) bool {
			switch y := e.(type) {
			case *xpath.VarRef:
				if y.Name == name {
					uses++
				}
			case *xpath.FLWORExpr:
				for _, cl := range y.Clauses {
					shadowed = shadowed || cl.Var == name || cl.PosVar == name
				}
			case *xpath.QuantifiedExpr:
				for _, b := range y.Bindings {
					shadowed = shadowed || b.Var == name
				}
			}
			return true
		})
	}
	for _, cl := range x.Clauses[i+1:] {
		shadowed = shadowed || cl.Var == name || cl.PosVar == name
		count(cl.Expr)
	}
	count(x.Where)
	for _, os := range x.OrderBy {
		count(os.Key)
	}
	count(x.Return)
	return uses == 1 && !shadowed
}

// pureSteps reports whether every step is an axis step without predicates:
// such steps stay inside each node's document and cannot raise an error.
func pureSteps(steps []xpath.Step) bool {
	for _, st := range steps {
		if st.Primary != nil || len(st.Preds) > 0 {
			return false
		}
	}
	return true
}

// elementPathName returns N when e is a path of pure axis steps from the
// context item (or its root) whose last step selects elements named N, in
// no particular namespace.
func elementPathName(e xpath.Expr) (string, bool) {
	p, ok := e.(*xpath.PathExpr)
	if !ok || len(p.Steps) == 0 || !pureSteps(p.Steps) {
		return "", false
	}
	if p.Start != nil {
		if _, ctx := p.Start.(*xpath.ContextItemExpr); !ctx {
			return "", false
		}
	}
	last := p.Steps[len(p.Steps)-1]
	if last.Axis == xpath.AxisAttribute || last.Test.Name.Prefix != "" || last.Test.Name.Local == "" ||
		(last.Test.Kind != xpath.TestName && last.Test.Kind != xpath.TestElement) {
		return "", false
	}
	return last.Test.Name.Local, true
}

// indexedProperty returns the fixed xs:string property that queue defines
// as //name, or "" (the first by name when there are several).
func (prog *Program) indexedProperty(queue, name string) string {
	for _, def := range prog.Properties.DefsForQueue(queue) {
		c := def.PerQueue[queue]
		if !def.Fixed || def.Type != xdm.TypeString || c == nil {
			continue
		}
		p, ok := c.AST().(*xpath.PathExpr)
		if !ok || !p.Rooted || !p.Descend || p.Start != nil || len(p.Steps) != 1 {
			continue
		}
		st := p.Steps[0]
		if st.Axis == xpath.AxisChild && st.Primary == nil && len(st.Preds) == 0 &&
			st.Test.Kind == xpath.TestName && st.Test.Name.Prefix == "" && st.Test.Name.Local == name {
			return def.Name
		}
	}
	return ""
}
