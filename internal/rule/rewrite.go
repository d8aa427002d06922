package rule

import (
	"demaq/internal/xdm"
	"demaq/internal/xpath"
	"demaq/internal/xquery"
)

// rewrite applies the deployment-time rewrites of Sec. 4.4.1 to a rule body
// attached to queue ("" for a rule attached to a slicing, whose messages
// come from any queue):
//
//   - qs:queue() without arguments receives the rule's queue name, removing
//     the runtime context dependency ("supplying default parameters to
//     functions which depend on the current queue");
//   - qs:property("p") for a fixed property defined on the queue is
//     replaced by the property's defining expression, wrapped in the
//     property type's constructor — the "view merging" style inlining of
//     fixed properties (Sec. 2.2/4.4.1). Only fixed properties qualify:
//     non-fixed ones may carry explicit or inherited values that differ
//     from the computed expression. Only calls evaluated with the message
//     as the focus qualify: inside a predicate or a path step the defining
//     expression would read the focus's document instead;
//   - qs:queue("Q") reads filtered on a fixed property's element become
//     property-index probes (planQueueReads), on slicings too.
//
// Rewrites mutate argument lists and produce shared subtrees; evaluation
// never mutates ASTs, so sharing is safe. rewrite returns the body, the
// probes to compile it with and its queue reads.
func rewrite(body xpath.Expr, prog *Program, queue string) (xpath.Expr, []xquery.QueueProbe, []QueueRead) {
	if queue != "" {
		body = rewriteQueueRule(body, prog, queue)
	}
	probes, reads := planQueueReads(body, prog)
	return body, probes, reads
}

// rewriteQueueRule applies the rewrites that need the rule's queue.
func rewriteQueueRule(body xpath.Expr, prog *Program, queue string) xpath.Expr {
	refocused := map[xpath.Expr]bool{}
	mark := func(e xpath.Expr) {
		xpath.Inspect(e, func(e xpath.Expr) bool {
			refocused[e] = true
			return true
		})
	}
	xpath.Inspect(body, func(e xpath.Expr) bool {
		switch x := e.(type) {
		case *xpath.FilterExpr:
			for _, p := range x.Preds {
				mark(p)
			}
		case *xpath.PathExpr:
			for _, st := range x.Steps {
				mark(st.Primary)
				for _, p := range st.Preds {
					mark(p)
				}
			}
		}
		return true
	})
	return rewriteExpr(body, func(e xpath.Expr) xpath.Expr {
		fc, ok := e.(*xpath.FuncCall)
		if !ok || fc.Prefix != "qs" {
			return e
		}
		switch fc.Local {
		case "queue":
			if len(fc.Args) == 0 {
				fc.Args = []xpath.Expr{xpath.NewLiteral(xdm.NewString(queue))}
			}
		case "property":
			if prog.opts.Unoptimized || len(fc.Args) != 1 || refocused[fc] {
				return e
			}
			lit, ok := fc.Args[0].(*xpath.Literal)
			if !ok || lit.Value.T != xdm.TypeString {
				return e
			}
			def, ok := prog.Properties.Def(lit.Value.S)
			if !ok || !def.Fixed || def.Type != xdm.TypeString {
				return e
			}
			binding, ok := def.PerQueue[queue]
			if !ok {
				return e
			}
			return &xpath.FuncCall{Local: "string", Args: []xpath.Expr{binding.AST()}}
		}
		return e
	})
}

// rewriteExpr applies f bottom-up over the expression tree, replacing nodes
// with f's result.
func rewriteExpr(e xpath.Expr, f func(xpath.Expr) xpath.Expr) xpath.Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *xpath.SequenceExpr:
		for i := range x.Items {
			x.Items[i] = rewriteExpr(x.Items[i], f)
		}
	case *xpath.FLWORExpr:
		for i := range x.Clauses {
			x.Clauses[i].Expr = rewriteExpr(x.Clauses[i].Expr, f)
		}
		x.Where = rewriteExpr(x.Where, f)
		for i := range x.OrderBy {
			x.OrderBy[i].Key = rewriteExpr(x.OrderBy[i].Key, f)
		}
		x.Return = rewriteExpr(x.Return, f)
	case *xpath.QuantifiedExpr:
		for i := range x.Bindings {
			x.Bindings[i].Expr = rewriteExpr(x.Bindings[i].Expr, f)
		}
		x.Satisfies = rewriteExpr(x.Satisfies, f)
	case *xpath.IfExpr:
		x.Cond = rewriteExpr(x.Cond, f)
		x.Then = rewriteExpr(x.Then, f)
		x.Else = rewriteExpr(x.Else, f)
	case *xpath.BinaryExpr:
		x.Left = rewriteExpr(x.Left, f)
		x.Right = rewriteExpr(x.Right, f)
	case *xpath.ComparisonExpr:
		x.Left = rewriteExpr(x.Left, f)
		x.Right = rewriteExpr(x.Right, f)
	case *xpath.UnaryExpr:
		x.Operand = rewriteExpr(x.Operand, f)
	case *xpath.PathExpr:
		x.Start = rewriteExpr(x.Start, f)
		for i := range x.Steps {
			if x.Steps[i].Primary != nil {
				x.Steps[i].Primary = rewriteExpr(x.Steps[i].Primary, f)
			}
			for j := range x.Steps[i].Preds {
				x.Steps[i].Preds[j] = rewriteExpr(x.Steps[i].Preds[j], f)
			}
		}
	case *xpath.FilterExpr:
		x.Primary = rewriteExpr(x.Primary, f)
		for i := range x.Preds {
			x.Preds[i] = rewriteExpr(x.Preds[i], f)
		}
	case *xpath.FuncCall:
		for i := range x.Args {
			x.Args[i] = rewriteExpr(x.Args[i], f)
		}
	case *xpath.ElementConstructor:
		for i := range x.Attrs {
			for j := range x.Attrs[i].Parts {
				x.Attrs[i].Parts[j] = rewriteExpr(x.Attrs[i].Parts[j], f)
			}
		}
		for i := range x.Content {
			x.Content[i] = rewriteExpr(x.Content[i], f)
		}
	case *xpath.EnqueueExpr:
		x.What = rewriteExpr(x.What, f)
		for i := range x.Props {
			x.Props[i].Value = rewriteExpr(x.Props[i].Value, f)
		}
	case *xpath.ResetExpr:
		x.Key = rewriteExpr(x.Key, f)
	}
	return f(e)
}
