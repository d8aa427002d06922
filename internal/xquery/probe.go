package xquery

import (
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// QueueProbe marks one qs:queue("Q") call whose result the expression
// filters by a general comparison R = Key, where R selects elements named N
// and Q's fixed xs:string property Prop is defined as //N (internal/rule
// checks those conditions). A message the filter keeps then has Prop equal
// to string(Key), or an //N that yielded more than one node. The compiled
// program may therefore fetch only those messages through the runtime's
// QueueProber: the filter still runs on them, so the result is exact.
type QueueProbe struct {
	Call *xpath.FuncCall // a qs:queue call with one argument
	Prop string
	// Key satisfies FocusFree: it is evaluated once more, at the call.
	Key xpath.Expr
}

// FocusFree reports whether e evaluates to the same value wherever the
// focus is, without reading the documents of a queue or slice: literals,
// variables, operators over such operands, paths of axis steps without
// predicates from such a start, and calls with such arguments of
// functions that, so called, neither read the focus (needsCtx) nor return
// documents (docs).
func FocusFree(e xpath.Expr) bool {
	switch x := e.(type) {
	case *xpath.Literal, *xpath.VarRef:
		return true
	case *xpath.FuncCall:
		f, err := resolveFunction(x.Prefix, x.Local, len(x.Args))
		if err != nil || f.docs || (f.needsCtx && len(x.Args) == 0) {
			return false
		}
		for _, a := range x.Args {
			if !FocusFree(a) {
				return false
			}
		}
		return true
	case *xpath.PathExpr:
		if x.Rooted || x.Start == nil || !FocusFree(x.Start) {
			return false
		}
		for _, st := range x.Steps {
			if st.Primary != nil || len(st.Preds) > 0 {
				return false
			}
		}
		return true
	case *xpath.UnaryExpr:
		return FocusFree(x.Operand)
	case *xpath.BinaryExpr:
		return FocusFree(x.Left) && FocusFree(x.Right)
	case *xpath.ComparisonExpr:
		return FocusFree(x.Left) && FocusFree(x.Right)
	case *xpath.SequenceExpr:
		for _, it := range x.Items {
			if !FocusFree(it) {
				return false
			}
		}
		return true
	case *xpath.IfExpr:
		return FocusFree(x.Cond) && FocusFree(x.Then) && (x.Else == nil || FocusFree(x.Else))
	}
	return false
}

// QueueProber is implemented by runtimes that answer qs:queue() reads from
// the property index; the others always read the whole queue.
type QueueProber interface {
	// QueueProbe returns, in the order Queue would, the documents of the
	// named queue's messages whose property prop has the string value
	// value or whose prop expression yielded more than one node. It may
	// return more; it must not return fewer. ok is false when the runtime
	// cannot probe (no index): the caller then reads the whole queue.
	QueueProbe(queue, prop, value string) (docs []*xmldom.Node, ok bool, err error)
}

// lowerQueueProbe compiles a probed qs:queue() call. call is the plain
// read, taken whenever the runtime cannot probe or the key is not a single
// string or untypedAtomic value — the probe compares strings, the filter
// might compare numbers. A key that fails to evaluate falls back too: the
// filter then raises the error exactly where the plain read would.
func (lw *lowerer) lowerQueueProbe(qp QueueProbe, queue, call instr, scope lowerScope) (instr, error) {
	key, err := lw.lower(qp.Key, scope)
	if err != nil {
		return nil, err
	}
	prop := qp.Prop
	return func(m *machine) (xdm.Sequence, error) {
		prober, ok := m.ev.rt.(QueueProber)
		if !ok {
			return call(m)
		}
		ks, err := key(m)
		if err != nil || len(ks) != 1 {
			return call(m)
		}
		k := xdm.Atomize(ks[0])
		if k.T != xdm.TypeString && k.T != xdm.TypeUntyped {
			return call(m)
		}
		qs, err := queue(m)
		if err != nil {
			return nil, err
		}
		name, err := argString([]xdm.Sequence{qs}, 0)
		if err != nil {
			return nil, err
		}
		docs, ok, err := prober.QueueProbe(name, prop, k.StringValue())
		if err != nil {
			return nil, err
		}
		if !ok {
			return call(m)
		}
		return xdm.NodeSeq(docs), nil
	}, nil
}
