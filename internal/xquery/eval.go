package xquery

import (
	"math"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// EvalOptions configure one evaluation.
type EvalOptions struct {
	// ContextDoc is the initial context item (the triggering message's
	// document node for rules). May be nil for context-free expressions.
	ContextDoc *xmldom.Node
	// Vars provides externally bound variables.
	Vars map[string]xdm.Sequence
	// Namespaces maps prefixes used in name tests to URIs.
	Namespaces map[string]string
}

// Eval evaluates a compiled expression by running its program. It returns
// the result sequence and the pending update list produced by update
// primitives. No side effects are performed.
func Eval(c *Compiled, rt Runtime, opts EvalOptions) (xdm.Sequence, *UpdateList, error) {
	return evalProgram(c.prog, rt, opts)
}

// evaluator is the environment of one evaluation that the built-in
// functions see: the runtime, the pending update list and the namespaces.
type evaluator struct {
	rt      Runtime
	updates *UpdateList
	ns      map[string]string
}

// evalCtx is the focus: context item, position and size.
type evalCtx struct {
	item xdm.Item // nil = absent
	pos  int
	size int
}

func arith(op xpath.BinOpKind, l, r xdm.Value) (xdm.Sequence, error) {
	// Untyped operands are cast to double (XQuery arithmetic rule).
	if l.T == xdm.TypeUntyped {
		l = xdm.NewDouble(l.Number())
	}
	if r.T == xdm.TypeUntyped {
		r = xdm.NewDouble(r.Number())
	}
	if !l.T.IsNumeric() || !r.T.IsNumeric() {
		return nil, dynErr("XPTY0004", "arithmetic on non-numeric operands (%s, %s)", l.T, r.T)
	}
	intOp := l.T == xdm.TypeInteger && r.T == xdm.TypeInteger
	switch op {
	case xpath.BinAdd:
		if intOp {
			return xdm.Singleton(xdm.NewInteger(l.I + r.I)), nil
		}
		return xdm.Singleton(xdm.NewDouble(l.Number() + r.Number())), nil
	case xpath.BinSub:
		if intOp {
			return xdm.Singleton(xdm.NewInteger(l.I - r.I)), nil
		}
		return xdm.Singleton(xdm.NewDouble(l.Number() - r.Number())), nil
	case xpath.BinMul:
		if intOp {
			return xdm.Singleton(xdm.NewInteger(l.I * r.I)), nil
		}
		return xdm.Singleton(xdm.NewDouble(l.Number() * r.Number())), nil
	case xpath.BinDiv:
		rf := r.Number()
		if rf == 0 && intOp {
			return nil, dynErr("FOAR0001", "division by zero")
		}
		return xdm.Singleton(xdm.NewDouble(l.Number() / rf)), nil
	case xpath.BinIDiv:
		if r.Number() == 0 {
			return nil, dynErr("FOAR0001", "integer division by zero")
		}
		q := l.Number() / r.Number()
		return xdm.Singleton(xdm.NewInteger(int64(math.Trunc(q)))), nil
	case xpath.BinMod:
		if intOp {
			if r.I == 0 {
				return nil, dynErr("FOAR0001", "modulus by zero")
			}
			return xdm.Singleton(xdm.NewInteger(l.I % r.I)), nil
		}
		return xdm.Singleton(xdm.NewDouble(math.Mod(l.Number(), r.Number()))), nil
	}
	return nil, dynErr("XQST0000", "unknown arithmetic operator")
}
