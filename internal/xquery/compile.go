package xquery

import (
	"demaq/internal/xpath"
)

// Compiled is a statically checked, executable expression. The compile
// phase resolves function references, verifies variable scoping, records
// whether the expression contains update primitives, and lowers the AST
// into the evaluation program (program.go) that Eval runs. The rule
// compiler (internal/rule) performs its rewrites on the AST before
// compiling.
type Compiled struct {
	ast      xpath.Expr
	prog     *program // never nil
	updating bool
}

// AST exposes the underlying expression, e.g. for plan explanation.
func (c *Compiled) AST() xpath.Expr { return c.ast }

// Updating reports whether the expression contains do-enqueue/do-reset.
func (c *Compiled) Updating() bool { return c.updating }

// CompileOptions configure static analysis.
type CompileOptions struct {
	// AllowSlice permits qs:slice()/qs:slicekey(); set for slicing rules.
	AllowSlice bool
	// ExtraVars are names of variables bound externally (beyond FLWOR and
	// quantified bindings).
	ExtraVars []string
	// QueueProbes are the qs:queue() calls of the expression that may be
	// answered from the property index (see QueueProbe); internal/rule
	// plans them.
	QueueProbes []QueueProbe
}

// Compile statically checks an expression and lowers it to an evaluation
// program. An expression it cannot lower is an error.
func Compile(e xpath.Expr, opts CompileOptions) (*Compiled, error) {
	c := &Compiled{ast: e}
	vars := map[string]bool{}
	for _, v := range opts.ExtraVars {
		vars[v] = true
	}
	if err := c.check(e, vars, opts); err != nil {
		return nil, err
	}
	p, err := lower(e, opts)
	if err != nil {
		return nil, err
	}
	c.prog = p
	return c, nil
}

// MustCompile compiles or panics; for tests and static fixtures.
func MustCompile(src string, opts CompileOptions) *Compiled {
	e, err := xpath.ParseExprString(src)
	if err != nil {
		panic(err)
	}
	c, err := Compile(e, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// check walks the AST performing scope and function resolution. vars maps
// in-scope variable names; it is copied on extension so sibling scopes stay
// independent.
func (c *Compiled) check(e xpath.Expr, vars map[string]bool, opts CompileOptions) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *xpath.SequenceExpr:
		for _, it := range x.Items {
			if err := c.check(it, vars, opts); err != nil {
				return err
			}
		}
	case *xpath.FLWORExpr:
		scope := copyVars(vars)
		for _, cl := range x.Clauses {
			if err := c.check(cl.Expr, scope, opts); err != nil {
				return err
			}
			scope[cl.Var] = true
			if cl.PosVar != "" {
				scope[cl.PosVar] = true
			}
		}
		if x.Where != nil {
			if err := c.check(x.Where, scope, opts); err != nil {
				return err
			}
		}
		for _, os := range x.OrderBy {
			if err := c.check(os.Key, scope, opts); err != nil {
				return err
			}
		}
		return c.check(x.Return, scope, opts)
	case *xpath.QuantifiedExpr:
		scope := copyVars(vars)
		for _, b := range x.Bindings {
			if err := c.check(b.Expr, scope, opts); err != nil {
				return err
			}
			scope[b.Var] = true
		}
		return c.check(x.Satisfies, scope, opts)
	case *xpath.IfExpr:
		if err := c.check(x.Cond, vars, opts); err != nil {
			return err
		}
		if err := c.check(x.Then, vars, opts); err != nil {
			return err
		}
		return c.check(x.Else, vars, opts)
	case *xpath.BinaryExpr:
		if err := c.check(x.Left, vars, opts); err != nil {
			return err
		}
		return c.check(x.Right, vars, opts)
	case *xpath.ComparisonExpr:
		if err := c.check(x.Left, vars, opts); err != nil {
			return err
		}
		return c.check(x.Right, vars, opts)
	case *xpath.UnaryExpr:
		return c.check(x.Operand, vars, opts)
	case *xpath.PathExpr:
		if x.Start != nil {
			if err := c.check(x.Start, vars, opts); err != nil {
				return err
			}
		}
		for _, st := range x.Steps {
			if st.Primary != nil {
				if err := c.check(st.Primary, vars, opts); err != nil {
					return err
				}
			}
			for _, p := range st.Preds {
				if err := c.check(p, vars, opts); err != nil {
					return err
				}
			}
		}
	case *xpath.FilterExpr:
		if err := c.check(x.Primary, vars, opts); err != nil {
			return err
		}
		for _, p := range x.Preds {
			if err := c.check(p, vars, opts); err != nil {
				return err
			}
		}
	case *xpath.VarRef:
		if !vars[x.Name] {
			return staticErr("unbound variable $%s at %s", x.Name, x.Span())
		}
	case *xpath.ContextItemExpr, *xpath.Literal, *xpath.TextLiteral:
		return nil
	case *xpath.FuncCall:
		f, err := resolveFunction(x.Prefix, x.Local, len(x.Args))
		if err != nil {
			return staticErr("%v at %s", err, x.Span())
		}
		if f.slice && !opts.AllowSlice {
			return staticErr("%s:%s() is only available in rules on slicings (at %s)", x.Prefix, x.Local, x.Span())
		}
		for _, a := range x.Args {
			if err := c.check(a, vars, opts); err != nil {
				return err
			}
		}
	case *xpath.ElementConstructor:
		for _, a := range x.Attrs {
			for _, part := range a.Parts {
				if err := c.check(part, vars, opts); err != nil {
					return err
				}
			}
		}
		for _, ct := range x.Content {
			if err := c.check(ct, vars, opts); err != nil {
				return err
			}
		}
	case *xpath.EnqueueExpr:
		c.updating = true
		if err := c.check(x.What, vars, opts); err != nil {
			return err
		}
		for _, p := range x.Props {
			if err := c.check(p.Value, vars, opts); err != nil {
				return err
			}
		}
	case *xpath.ResetExpr:
		c.updating = true
		if x.Slicing == "" && !opts.AllowSlice {
			return staticErr("bare 'do reset' is only available in rules on slicings (at %s)", x.Span())
		}
		return c.check(x.Key, vars, opts)
	default:
		return staticErr("unsupported expression %T", e)
	}
	return nil
}

func copyVars(vars map[string]bool) map[string]bool {
	out := make(map[string]bool, len(vars)+4)
	for k, v := range vars {
		out[k] = v
	}
	return out
}
