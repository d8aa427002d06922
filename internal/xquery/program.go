package xquery

// The evaluation program (the "plan/program split" of Sec. 4.4.1), the
// only evaluator the product runs.
//
// Walking the AST on every evaluation would pay a type switch per node,
// box every path step's node candidates into xdm.Sequence values, allocate
// a fresh context per predicate and resolve every function name in a map.
// lower() does all of that once, at deployment time: the AST becomes a
// tree of typed closures ("instructions") that hold pre-resolved
// functions, pre-compiled node tests and slot indexes for variables.
// Lowering is total — every expression the static check accepts lowers,
// and anything else is a Compile error. Execution runs the closures over a
// pooled machine whose node-sequence buffers are reused across
// evaluations.
//
// A reference AST interpreter lives in the package's tests
// (interp_test.go); the differential harness (differential_test.go,
// FuzzEvalBackends, the rule-body differential) asserts result-, update-
// and error-equivalence of the program against it.

import (
	"math"
	"sort"
	"strings"
	"sync"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// program is a lowered expression: a closure tree executed on a machine.
type program struct {
	root instr
	// nSlots is the machine frame size: one slot per variable binder.
	nSlots int
	// extern maps externally bound variable names (CompileOptions.ExtraVars)
	// to their slot and presence-check index.
	extern map[string]externVar
}

type externVar struct {
	slot int
	idx  int // index into machine.externSet
}

// instr computes one expression over the current machine state.
type instr func(m *machine) (xdm.Sequence, error)

// atomInstr computes an atomized single value; empty reports the empty
// sequence.
type atomInstr func(m *machine) (v xdm.Value, empty bool, err error)

// boolInstr computes an effective boolean value.
type boolInstr func(m *machine) (bool, error)

// nodePred is a pre-compiled node test. It receives the machine because
// prefixed name tests resolve their prefix against the per-evaluation
// namespace map.
type nodePred func(m *machine, n *xmldom.Node) bool

// machine is the reusable evaluation frame: dynamic context, variable
// slots and the runtime environment. It is pooled across evaluations.
type machine struct {
	ev        evaluator // runtime, pending updates, namespaces
	ctx       evalCtx   // context item / position / size (vars unused)
	slots     []xdm.Sequence
	externSet []bool
}

var machinePool = sync.Pool{New: func() any { return &machine{} }}

// nodeBufPool pools the intermediate node buffers of path execution.
var nodeBufPool = sync.Pool{New: func() any {
	b := make([]*xmldom.Node, 0, 32)
	return &b
}}

func getNodeBuf() *[]*xmldom.Node { return nodeBufPool.Get().(*[]*xmldom.Node) }

// maxPooledNodeBuf caps the capacity of a pooled node buffer. A path over a
// whole queue grows its buffers to the queue's size; pooled, such a buffer
// would make every later Put clear all of it.
const maxPooledNodeBuf = 256

// putNodeBuf clears the buffer before pooling it: a stale *Node would pin
// its whole document (via Parent/Children links) for the lifetime of the
// pool entry. Oversized buffers are left to the garbage collector.
func putNodeBuf(b *[]*xmldom.Node) {
	if cap(*b) > maxPooledNodeBuf {
		return
	}
	full := (*b)[:cap(*b)]
	for i := range full {
		full[i] = nil
	}
	*b = full[:0]
	nodeBufPool.Put(b)
}

// Shared boolean singletons: values are immutable and callers never mutate
// result sequences in place, so the compiled backend returns shared slices.
var (
	seqTrue  = xdm.Sequence{xdm.NewBool(true)}
	seqFalse = xdm.Sequence{xdm.NewBool(false)}
)

func boolSeq(b bool) xdm.Sequence {
	if b {
		return seqTrue
	}
	return seqFalse
}

// evalProgram runs a lowered program.
func evalProgram(p *program, rt Runtime, opts EvalOptions) (xdm.Sequence, *UpdateList, error) {
	m := machinePool.Get().(*machine)
	m.ev = evaluator{rt: rt, updates: &UpdateList{}, ns: opts.Namespaces}
	m.ctx = evalCtx{pos: 1, size: 1}
	if opts.ContextDoc != nil {
		m.ctx.item = xdm.Node{N: opts.ContextDoc}
	}
	if cap(m.slots) < p.nSlots {
		m.slots = make([]xdm.Sequence, p.nSlots)
	} else {
		m.slots = m.slots[:p.nSlots]
	}
	if n := len(p.extern); n > 0 {
		if cap(m.externSet) < n {
			m.externSet = make([]bool, n)
		} else {
			m.externSet = m.externSet[:n]
			for i := range m.externSet {
				m.externSet[i] = false
			}
		}
		for name, val := range opts.Vars {
			if ev, ok := p.extern[name]; ok {
				m.slots[ev.slot] = val
				m.externSet[ev.idx] = true
			}
		}
	}
	seq, err := p.root(m)
	updates := m.ev.updates
	// Release: drop references so pooled machines do not pin documents.
	for i := range m.slots {
		m.slots[i] = nil
	}
	m.ev = evaluator{}
	m.ctx = evalCtx{}
	machinePool.Put(m)
	if err != nil {
		return nil, nil, err
	}
	return seq, updates, nil
}

// --- lowering ---

// lowerer compiles the AST to instructions; scope maps variable names to
// slots, copied on extension like the static checker's scope.
type lowerer struct {
	nSlots int
	extern map[string]externVar
	probes map[*xpath.FuncCall]QueueProbe
}

type lowerScope map[string]int

func (sc lowerScope) extend() lowerScope {
	out := make(lowerScope, len(sc)+4)
	for k, v := range sc {
		out[k] = v
	}
	return out
}

// lower builds the program of a statically checked expression.
func lower(e xpath.Expr, opts CompileOptions) (p *program, err error) {
	lw := &lowerer{extern: map[string]externVar{}, probes: map[*xpath.FuncCall]QueueProbe{}}
	for _, qp := range opts.QueueProbes {
		lw.probes[qp.Call] = qp
	}
	scope := lowerScope{}
	for i, v := range opts.ExtraVars {
		slot := lw.alloc()
		scope[v] = slot
		lw.extern[v] = externVar{slot: slot, idx: i}
	}
	root, err := lw.lower(e, scope)
	if err != nil {
		return nil, err
	}
	return &program{root: root, nSlots: lw.nSlots, extern: lw.extern}, nil
}

func (lw *lowerer) alloc() int {
	s := lw.nSlots
	lw.nSlots++
	return s
}

// lower compiles one expression node.
func (lw *lowerer) lower(e xpath.Expr, scope lowerScope) (instr, error) {
	switch x := e.(type) {
	case *xpath.Literal:
		s := xdm.Singleton(x.Value)
		return func(*machine) (xdm.Sequence, error) { return s, nil }, nil

	case *xpath.TextLiteral:
		s := xdm.Singleton(xdm.NewString(x.Text))
		return func(*machine) (xdm.Sequence, error) { return s, nil }, nil

	case *xpath.VarRef:
		slot, ok := scope[x.Name]
		if !ok {
			return nil, staticErr("unbound variable $%s at %s", x.Name, x.Span())
		}
		if ev, isExtern := lw.extern[x.Name]; isExtern && ev.slot == slot {
			name, idx := x.Name, ev.idx
			return func(m *machine) (xdm.Sequence, error) {
				if !m.externSet[idx] {
					return nil, dynErr("XPDY0002", "unbound variable $%s", name)
				}
				return m.slots[slot], nil
			}, nil
		}
		return func(m *machine) (xdm.Sequence, error) { return m.slots[slot], nil }, nil

	case *xpath.ContextItemExpr:
		return func(m *machine) (xdm.Sequence, error) {
			if m.ctx.item == nil {
				return nil, dynErr("XPDY0002", "context item is absent")
			}
			return xdm.Singleton(m.ctx.item), nil
		}, nil

	case *xpath.SequenceExpr:
		items, err := lw.lowerAll(x.Items, scope)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (xdm.Sequence, error) {
			var out xdm.Sequence
			for _, it := range items {
				s, err := it(m)
				if err != nil {
					return nil, err
				}
				out = append(out, s...)
			}
			return out, nil
		}, nil

	case *xpath.IfExpr:
		cond, err := lw.lowerCond(x.Cond, scope)
		if err != nil {
			return nil, err
		}
		then, err := lw.lower(x.Then, scope)
		if err != nil {
			return nil, err
		}
		var els instr
		if x.Else != nil {
			els, err = lw.lower(x.Else, scope)
			if err != nil {
				return nil, err
			}
		}
		return func(m *machine) (xdm.Sequence, error) {
			b, err := cond(m)
			if err != nil {
				return nil, err
			}
			if b {
				return then(m)
			}
			if els == nil {
				return xdm.EmptySequence, nil
			}
			return els(m)
		}, nil

	case *xpath.BinaryExpr:
		return lw.lowerBinary(x, scope)

	case *xpath.ComparisonExpr:
		return lw.lowerComparison(x, scope)

	case *xpath.UnaryExpr:
		op, err := lw.lowerAtomic(x.Operand, scope)
		if err != nil {
			return nil, err
		}
		neg := x.Neg
		return func(m *machine) (xdm.Sequence, error) {
			v, empty, err := op(m)
			if err != nil || empty {
				return xdm.EmptySequence, err
			}
			return negateValue(neg, v)
		}, nil

	case *xpath.PathExpr:
		return lw.lowerPath(x, scope)

	case *xpath.FilterExpr:
		prim, err := lw.lower(x.Primary, scope)
		if err != nil {
			return nil, err
		}
		preds, err := lw.lowerAll(x.Preds, scope)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (xdm.Sequence, error) {
			s, err := prim(m)
			if err != nil {
				return nil, err
			}
			return m.applySeqPreds(s, preds)
		}, nil

	case *xpath.FuncCall:
		f, err := resolveFunction(x.Prefix, x.Local, len(x.Args))
		if err != nil {
			return nil, staticErr("%v at %s", err, x.Span())
		}
		args, err := lw.lowerAll(x.Args, scope)
		if err != nil {
			return nil, err
		}
		if len(args) == 0 {
			return func(m *machine) (xdm.Sequence, error) {
				return f.call(&m.ev, &m.ctx, nil)
			}, nil
		}
		call := func(m *machine) (xdm.Sequence, error) {
			argv := make([]xdm.Sequence, len(args))
			for i, a := range args {
				s, err := a(m)
				if err != nil {
					return nil, err
				}
				argv[i] = s
			}
			return f.call(&m.ev, &m.ctx, argv)
		}
		if qp, ok := lw.probes[x]; ok {
			return lw.lowerQueueProbe(qp, args[0], call, scope)
		}
		return call, nil

	case *xpath.FLWORExpr:
		return lw.lowerFLWOR(x, scope)

	case *xpath.QuantifiedExpr:
		return lw.lowerQuantified(x, scope)

	case *xpath.ElementConstructor:
		ce, err := lw.lowerElement(x, scope)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (xdm.Sequence, error) {
			b := xmldom.NewBuilder()
			if err := ce.build(m, b); err != nil {
				return nil, err
			}
			doc := b.Done()
			return xdm.Singleton(xdm.Node{N: doc.Root()}), nil
		}, nil

	case *xpath.EnqueueExpr:
		return lw.lowerEnqueue(x, scope)

	case *xpath.ResetExpr:
		slicing := x.Slicing
		if x.Key == nil {
			return func(m *machine) (xdm.Sequence, error) {
				m.ev.updates.Append(&ResetUpdate{Slicing: slicing, Implicit: true})
				return xdm.EmptySequence, nil
			}, nil
		}
		key, err := lw.lowerAtomic(x.Key, scope)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (xdm.Sequence, error) {
			v, empty, err := key(m)
			if err != nil {
				return nil, err
			}
			if empty {
				return nil, dynErr("DQTY0004", "do reset key is the empty sequence")
			}
			m.ev.updates.Append(&ResetUpdate{Slicing: slicing, Key: v})
			return xdm.EmptySequence, nil
		}, nil
	}
	return nil, staticErr("cannot lower expression %T", e)
}

func (lw *lowerer) lowerAll(es []xpath.Expr, scope lowerScope) ([]instr, error) {
	out := make([]instr, len(es))
	for i, e := range es {
		in, err := lw.lower(e, scope)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// lowerAtomic atomizes an operand to at most one value, with a constant
// fast path.
func (lw *lowerer) lowerAtomic(e xpath.Expr, scope lowerScope) (atomInstr, error) {
	if lit, ok := e.(*xpath.Literal); ok {
		v := lit.Value
		return func(*machine) (xdm.Value, bool, error) { return v, false, nil }, nil
	}
	in, err := lw.lower(e, scope)
	if err != nil {
		return nil, err
	}
	return func(m *machine) (xdm.Value, bool, error) {
		s, err := in(m)
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
	}, nil
}

// lowerCond compiles an expression in effective-boolean-value context.
// Pure axis paths become existence tests that stop at the first match —
// the common "if (//order) then ..." rule condition costs one early-exit
// DOM walk instead of materializing every descendant.
func (lw *lowerer) lowerCond(e xpath.Expr, scope lowerScope) (boolInstr, error) {
	switch x := e.(type) {
	case *xpath.BinaryExpr:
		if x.Op == xpath.BinAnd || x.Op == xpath.BinOr {
			l, err := lw.lowerCond(x.Left, scope)
			if err != nil {
				return nil, err
			}
			r, err := lw.lowerCond(x.Right, scope)
			if err != nil {
				return nil, err
			}
			isOr := x.Op == xpath.BinOr
			return func(m *machine) (bool, error) {
				lb, err := l(m)
				if err != nil {
					return false, err
				}
				if lb == isOr {
					return isOr, nil
				}
				return r(m)
			}, nil
		}
	case *xpath.FuncCall:
		if x.Prefix == "" || x.Prefix == "fn" {
			switch {
			case x.Local == "not" && len(x.Args) == 1:
				inner, err := lw.lowerCond(x.Args[0], scope)
				if err != nil {
					return nil, err
				}
				return func(m *machine) (bool, error) {
					b, err := inner(m)
					return !b, err
				}, nil
			case x.Local == "exists" && len(x.Args) == 1:
				if p, ok := x.Args[0].(*xpath.PathExpr); ok {
					if ex, ok := lowerExists(p); ok {
						return ex, nil
					}
				}
			case (x.Local == "true" || x.Local == "false") && len(x.Args) == 0:
				b := x.Local == "true"
				return func(*machine) (bool, error) { return b, nil }, nil
			}
		}
	case *xpath.PathExpr:
		// A path in boolean context is an existence test when its steps are
		// pure axis navigation (nodes only, EBV = non-empty).
		if ex, ok := lowerExists(x); ok {
			return ex, nil
		}
	}
	in, err := lw.lower(e, scope)
	if err != nil {
		return nil, err
	}
	return func(m *machine) (bool, error) {
		s, err := in(m)
		if err != nil {
			return false, err
		}
		return xdm.EffectiveBooleanValue(s)
	}, nil
}

// existsStep is one pure axis step of an existence test.
type existsStep struct {
	axis  xpath.Axis
	match nodePred
}

// lowerExists compiles a predicate-free axis path into an early-exit
// existence walker, an optional fast path: ok is false when the path does
// not qualify, and the caller lowers it in full.
func lowerExists(x *xpath.PathExpr) (ex boolInstr, ok bool) {
	if x.Start != nil {
		return nil, false
	}
	steps := pathSteps(x)
	if len(steps) == 0 && !x.Rooted {
		return nil, false
	}
	es := make([]existsStep, len(steps))
	for i, st := range steps {
		if st.Primary != nil || len(st.Preds) > 0 {
			return nil, false
		}
		es[i] = existsStep{axis: st.Axis, match: lowerTest(st.Axis, st.Test)}
	}
	rooted := x.Rooted
	return func(m *machine) (bool, error) {
		n, err := pathOrigin(m, rooted)
		if err != nil {
			return false, err
		}
		return existsWalk(m, es, n), nil
	}, true
}

// pathOrigin resolves the initial context node of a context-started path,
// mirroring evalPath's error behavior.
func pathOrigin(m *machine, rooted bool) (*xmldom.Node, error) {
	if m.ctx.item == nil {
		return nil, dynErr("XPDY0002", "context item is absent")
	}
	n, ok := m.ctx.item.(xdm.Node)
	if !ok {
		if rooted {
			return nil, dynErr("XPTY0020", "context item is not a node")
		}
		return nil, dynErr("XPTY0019", "path step applied to non-node")
	}
	if rooted {
		return n.N.Document(), nil
	}
	return n.N, nil
}

func existsWalk(m *machine, steps []existsStep, n *xmldom.Node) bool {
	if len(steps) == 0 {
		return true
	}
	st := steps[0]
	rest := steps[1:]
	switch st.axis {
	case xpath.AxisChild:
		for _, c := range n.Children {
			if st.match(m, c) && existsWalk(m, rest, c) {
				return true
			}
		}
	case xpath.AxisAttribute:
		for _, a := range n.Attrs {
			if st.match(m, a) && existsWalk(m, rest, a) {
				return true
			}
		}
	case xpath.AxisSelf:
		return st.match(m, n) && existsWalk(m, rest, n)
	case xpath.AxisParent:
		return n.Parent != nil && st.match(m, n.Parent) && existsWalk(m, rest, n.Parent)
	case xpath.AxisDescendant:
		return descendantExists(m, st.match, rest, n)
	case xpath.AxisDescendantOrSelf:
		if st.match(m, n) && existsWalk(m, rest, n) {
			return true
		}
		return descendantExists(m, st.match, rest, n)
	case xpath.AxisAncestor:
		for cur := n.Parent; cur != nil; cur = cur.Parent {
			if st.match(m, cur) && existsWalk(m, rest, cur) {
				return true
			}
		}
	case xpath.AxisAncestorOrSelf:
		for cur := n; cur != nil; cur = cur.Parent {
			if st.match(m, cur) && existsWalk(m, rest, cur) {
				return true
			}
		}
	case xpath.AxisFollowingSibling, xpath.AxisPrecedingSibling:
		if n.Parent == nil {
			return false
		}
		sibs := n.Parent.Children
		idx := -1
		for i, s := range sibs {
			if s == n {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false
		}
		if st.axis == xpath.AxisFollowingSibling {
			sibs = sibs[idx+1:]
			for _, s := range sibs {
				if st.match(m, s) && existsWalk(m, rest, s) {
					return true
				}
			}
		} else {
			for i := idx - 1; i >= 0; i-- {
				if st.match(m, sibs[i]) && existsWalk(m, rest, sibs[i]) {
					return true
				}
			}
		}
	}
	return false
}

func descendantExists(m *machine, match nodePred, rest []existsStep, n *xmldom.Node) bool {
	for _, c := range n.Children {
		if match(m, c) && existsWalk(m, rest, c) {
			return true
		}
		if descendantExists(m, match, rest, c) {
			return true
		}
	}
	return false
}

// --- binary / comparison / unary ---

func (lw *lowerer) lowerBinary(x *xpath.BinaryExpr, scope lowerScope) (instr, error) {
	switch x.Op {
	case xpath.BinOr, xpath.BinAnd:
		cond, err := lw.lowerCond(x, scope)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (xdm.Sequence, error) {
			b, err := cond(m)
			if err != nil {
				return nil, err
			}
			return boolSeq(b), nil
		}, nil

	case xpath.BinUnion:
		l, err := lw.lower(x.Left, scope)
		if err != nil {
			return nil, err
		}
		r, err := lw.lower(x.Right, scope)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (xdm.Sequence, error) {
			ls, err := l(m)
			if err != nil {
				return nil, err
			}
			rs, err := r(m)
			if err != nil {
				return nil, err
			}
			ln, err := ls.Nodes()
			if err != nil {
				return nil, dynErr("XPTY0004", "union operands must be nodes")
			}
			rn, err := rs.Nodes()
			if err != nil {
				return nil, dynErr("XPTY0004", "union operands must be nodes")
			}
			return xdm.NodeSeq(xmldom.SortDocOrder(append(ln, rn...))), nil
		}, nil

	case xpath.BinRange:
		lo, err := lw.lowerAtomic(x.Left, scope)
		if err != nil {
			return nil, err
		}
		hi, err := lw.lowerAtomic(x.Right, scope)
		if err != nil {
			return nil, err
		}
		return func(m *machine) (xdm.Sequence, error) {
			lv, empty, err := lo(m)
			if err != nil || empty {
				return xdm.EmptySequence, err
			}
			hv, empty, err := hi(m)
			if err != nil || empty {
				return xdm.EmptySequence, err
			}
			return rangeSeq(lv, hv)
		}, nil
	}

	// Arithmetic: left empty short-circuits the right operand.
	op := x.Op
	l, err := lw.lowerAtomic(x.Left, scope)
	if err != nil {
		return nil, err
	}
	r, err := lw.lowerAtomic(x.Right, scope)
	if err != nil {
		return nil, err
	}
	return func(m *machine) (xdm.Sequence, error) {
		lv, empty, err := l(m)
		if err != nil || empty {
			return xdm.EmptySequence, err
		}
		rv, empty, err := r(m)
		if err != nil || empty {
			return xdm.EmptySequence, err
		}
		return arith(op, lv, rv)
	}, nil
}

// rangeSeq materializes the integer range lo to hi.
func rangeSeq(lo, hi xdm.Value) (xdm.Sequence, error) {
	loi, err := lo.Cast(xdm.TypeInteger)
	if err != nil {
		return nil, dynErr("XPTY0004", "range bounds must be integers")
	}
	hii, err := hi.Cast(xdm.TypeInteger)
	if err != nil {
		return nil, dynErr("XPTY0004", "range bounds must be integers")
	}
	if loi.I > hii.I {
		return xdm.EmptySequence, nil
	}
	if hii.I-loi.I > 10_000_000 {
		return nil, dynErr("FOAR0002", "range too large")
	}
	out := make(xdm.Sequence, 0, hii.I-loi.I+1)
	for i := loi.I; i <= hii.I; i++ {
		out = append(out, xdm.NewInteger(i))
	}
	return out, nil
}

func negateValue(neg bool, v xdm.Value) (xdm.Sequence, error) {
	if !neg {
		return xdm.Singleton(v), nil
	}
	if v.T == xdm.TypeInteger {
		return xdm.Singleton(xdm.NewInteger(-v.I)), nil
	}
	f := v.Number()
	if math.IsNaN(f) && v.T != xdm.TypeDouble && v.T != xdm.TypeDecimal && v.T != xdm.TypeUntyped {
		return nil, dynErr("XPTY0004", "unary minus on non-numeric operand")
	}
	return xdm.Singleton(xdm.NewDouble(-f)), nil
}

func (lw *lowerer) lowerComparison(x *xpath.ComparisonExpr, scope lowerScope) (instr, error) {
	l, err := lw.lower(x.Left, scope)
	if err != nil {
		return nil, err
	}
	r, err := lw.lower(x.Right, scope)
	if err != nil {
		return nil, err
	}
	op, general, nodeIs := x.Op, x.General, x.NodeIs
	return func(m *machine) (xdm.Sequence, error) {
		ls, err := l(m)
		if err != nil {
			return nil, err
		}
		rs, err := r(m)
		if err != nil {
			return nil, err
		}
		if nodeIs {
			if len(ls) == 0 || len(rs) == 0 {
				return xdm.EmptySequence, nil
			}
			ln, err := ls.Nodes()
			if err != nil || len(ln) != 1 {
				return nil, dynErr("XPTY0004", "'is' requires single nodes")
			}
			rn, err := rs.Nodes()
			if err != nil || len(rn) != 1 {
				return nil, dynErr("XPTY0004", "'is' requires single nodes")
			}
			return boolSeq(ln[0] == rn[0]), nil
		}
		if general {
			b, err := xdm.CompareGeneral(op, ls, rs)
			if err != nil {
				return nil, err
			}
			return boolSeq(b), nil
		}
		if len(ls) == 0 || len(rs) == 0 {
			return xdm.EmptySequence, nil
		}
		if len(ls) > 1 || len(rs) > 1 {
			return nil, dynErr("XPTY0004", "value comparison requires single items")
		}
		b, err := xdm.CompareValues(op, xdm.Atomize(ls[0]), xdm.Atomize(rs[0]))
		if err != nil {
			return nil, err
		}
		return boolSeq(b), nil
	}, nil
}

// --- FLWOR / quantified ---

type cClause struct {
	forLoop bool
	slot    int
	posSlot int // -1: none
	expr    instr
}

type cOrder struct {
	key        atomInstr
	descending bool
}

func (lw *lowerer) lowerFLWOR(x *xpath.FLWORExpr, scope lowerScope) (instr, error) {
	scope = scope.extend()
	clauses := make([]cClause, len(x.Clauses))
	var boundSlots []int
	for i, cl := range x.Clauses {
		in, err := lw.lower(cl.Expr, scope)
		if err != nil {
			return nil, err
		}
		c := cClause{forLoop: cl.For, expr: in, posSlot: -1}
		c.slot = lw.alloc()
		scope[cl.Var] = c.slot
		boundSlots = append(boundSlots, c.slot)
		if cl.PosVar != "" {
			c.posSlot = lw.alloc()
			scope[cl.PosVar] = c.posSlot
			boundSlots = append(boundSlots, c.posSlot)
		}
		clauses[i] = c
	}
	var where boolInstr
	if x.Where != nil {
		w, err := lw.lowerCond(x.Where, scope)
		if err != nil {
			return nil, err
		}
		where = w
	}
	orderBy := make([]cOrder, len(x.OrderBy))
	for i, spec := range x.OrderBy {
		k, err := lw.lowerAtomic(spec.Key, scope)
		if err != nil {
			return nil, err
		}
		orderBy[i] = cOrder{key: k, descending: spec.Descending}
	}
	ret, err := lw.lower(x.Return, scope)
	if err != nil {
		return nil, err
	}

	if len(orderBy) == 0 {
		// Streaming form: no tuple materialization.
		return func(m *machine) (xdm.Sequence, error) {
			var out xdm.Sequence
			err := iterClauses(m, clauses, where, func(m *machine) error {
				s, err := ret(m)
				if err != nil {
					return err
				}
				out = append(out, s...)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if out == nil {
				return xdm.EmptySequence, nil
			}
			return out, nil
		}, nil
	}

	// Order-by form: materialize tuples (snapshots of the bound slots and
	// their sort keys), sort stably with empty keys least, then emit.
	nOrder := len(orderBy)
	return func(m *machine) (xdm.Sequence, error) {
		type tuple struct {
			binds []xdm.Sequence
			keys  []xdm.Value
			empty []bool
		}
		var tuples []tuple
		err := iterClauses(m, clauses, where, func(m *machine) error {
			t := tuple{binds: make([]xdm.Sequence, len(boundSlots))}
			for bi, slot := range boundSlots {
				t.binds[bi] = m.slots[slot]
			}
			tuples = append(tuples, t)
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Sort keys are computed in a second pass after every tuple has
		// been materialized — a where clause that errors on a later tuple must win over a key
		// expression that errors on an earlier one.
		for ti := range tuples {
			t := &tuples[ti]
			for bi, slot := range boundSlots {
				m.slots[slot] = t.binds[bi]
			}
			t.keys = make([]xdm.Value, nOrder)
			t.empty = make([]bool, nOrder)
			for oi, spec := range orderBy {
				v, empty, err := spec.key(m)
				if err != nil {
					return nil, err
				}
				t.keys[oi], t.empty[oi] = v, empty
			}
		}

		var sortErr error
		sort.SliceStable(tuples, func(a, b int) bool {
			for j, spec := range orderBy {
				ta, tb := tuples[a], tuples[b]
				if ta.empty[j] && tb.empty[j] {
					continue
				}
				if ta.empty[j] || tb.empty[j] {
					less := ta.empty[j]
					if spec.descending {
						less = !less
					}
					return less
				}
				lt, err := xdm.CompareValues(xdm.OpLt, ta.keys[j], tb.keys[j])
				if err != nil {
					sortErr = err
					return false
				}
				gt, err := xdm.CompareValues(xdm.OpGt, ta.keys[j], tb.keys[j])
				if err != nil {
					sortErr = err
					return false
				}
				if !lt && !gt {
					continue
				}
				if spec.descending {
					return gt
				}
				return lt
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}

		var out xdm.Sequence
		for _, t := range tuples {
			for bi, slot := range boundSlots {
				m.slots[slot] = t.binds[bi]
			}
			s, err := ret(m)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		if out == nil {
			return xdm.EmptySequence, nil
		}
		return out, nil
	}, nil
}

// iterClauses runs the nested for/let iteration of a FLWOR expression,
// binding slots in place and invoking emit for every tuple that passes the
// where clause. Both FLWOR forms (streaming and order-by) share it.
func iterClauses(m *machine, clauses []cClause, where boolInstr, emit func(m *machine) error) error {
	var walk func(i int) error
	walk = func(i int) error {
		if i == len(clauses) {
			if where != nil {
				keep, err := where(m)
				if err != nil {
					return err
				}
				if !keep {
					return nil
				}
			}
			return emit(m)
		}
		cl := clauses[i]
		seq, err := cl.expr(m)
		if err != nil {
			return err
		}
		if !cl.forLoop {
			m.slots[cl.slot] = seq
			return walk(i + 1)
		}
		for idx, item := range seq {
			m.slots[cl.slot] = xdm.Singleton(item)
			if cl.posSlot >= 0 {
				m.slots[cl.posSlot] = xdm.Singleton(xdm.NewInteger(int64(idx + 1)))
			}
			if err := walk(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}

func (lw *lowerer) lowerQuantified(x *xpath.QuantifiedExpr, scope lowerScope) (instr, error) {
	scope = scope.extend()
	type binding struct {
		slot int
		expr instr
	}
	binds := make([]binding, len(x.Bindings))
	for i, b := range x.Bindings {
		in, err := lw.lower(b.Expr, scope)
		if err != nil {
			return nil, err
		}
		slot := lw.alloc()
		scope[b.Var] = slot
		binds[i] = binding{slot: slot, expr: in}
	}
	sat, err := lw.lowerCond(x.Satisfies, scope)
	if err != nil {
		return nil, err
	}
	every := x.Every
	return func(m *machine) (xdm.Sequence, error) {
		result := every
		var walk func(i int) (bool, error)
		walk = func(i int) (bool, error) {
			if i == len(binds) {
				b, err := sat(m)
				if err != nil {
					return false, err
				}
				if every && !b {
					result = false
					return true, nil
				}
				if !every && b {
					result = true
					return true, nil
				}
				return false, nil
			}
			seq, err := binds[i].expr(m)
			if err != nil {
				return false, err
			}
			for _, item := range seq {
				m.slots[binds[i].slot] = xdm.Singleton(item)
				done, err := walk(i + 1)
				if err != nil || done {
					return done, err
				}
			}
			return false, nil
		}
		if _, err := walk(0); err != nil {
			return nil, err
		}
		return boolSeq(result), nil
	}, nil
}

// --- paths ---

// cStep is one lowered path step.
type cStep struct {
	axis    xpath.Axis
	match   nodePred
	primary instr // non-nil: primary step, axis/match unused
	preds   []instr
}

// pathSteps returns the effective step list, materializing the implicit
// leading descendant-or-self::node() of "//" once at lowering time.
func pathSteps(x *xpath.PathExpr) []xpath.Step {
	if !x.Descend {
		return x.Steps
	}
	steps := make([]xpath.Step, 0, len(x.Steps)+1)
	steps = append(steps, xpath.Step{Axis: xpath.AxisDescendantOrSelf, Test: xpath.NodeTest{Kind: xpath.TestNode}})
	return append(steps, x.Steps...)
}

func (lw *lowerer) lowerPath(x *xpath.PathExpr, scope lowerScope) (instr, error) {
	var start instr
	if x.Start != nil {
		s, err := lw.lower(x.Start, scope)
		if err != nil {
			return nil, err
		}
		start = s
	}
	rawSteps := pathSteps(x)
	steps := make([]cStep, len(rawSteps))
	for i, st := range rawSteps {
		cs := cStep{axis: st.Axis}
		if st.Primary != nil {
			p, err := lw.lower(st.Primary, scope)
			if err != nil {
				return nil, err
			}
			cs.primary = p
		} else {
			cs.match = lowerTest(st.Axis, st.Test)
		}
		preds, err := lw.lowerAll(st.Preds, scope)
		if err != nil {
			return nil, err
		}
		cs.preds = preds
		steps[i] = cs
	}
	rooted := x.Rooted
	return func(m *machine) (xdm.Sequence, error) {
		return m.runPath(rooted, start, steps)
	}, nil
}

// lowerTest pre-compiles a node test for an axis into a predicate closure.
func lowerTest(axis xpath.Axis, test xpath.NodeTest) nodePred {
	principal := xmldom.ElementNode
	if axis == xpath.AxisAttribute {
		principal = xmldom.AttributeNode
	}
	switch test.Kind {
	case xpath.TestNode:
		return func(*machine, *xmldom.Node) bool { return true }
	case xpath.TestText:
		return func(_ *machine, n *xmldom.Node) bool { return n.Kind == xmldom.TextNode }
	case xpath.TestComment:
		return func(_ *machine, n *xmldom.Node) bool { return n.Kind == xmldom.CommentNode }
	case xpath.TestDocument:
		return func(_ *machine, n *xmldom.Node) bool { return n.Kind == xmldom.DocumentNode }
	case xpath.TestAnyName:
		return func(_ *machine, n *xmldom.Node) bool { return n.Kind == principal }
	case xpath.TestElement:
		if test.Name.Local == "" {
			return func(_ *machine, n *xmldom.Node) bool { return n.Kind == xmldom.ElementNode }
		}
		return nameTest(xmldom.ElementNode, test.Name)
	case xpath.TestAttribute:
		if test.Name.Local == "" {
			return func(_ *machine, n *xmldom.Node) bool { return n.Kind == xmldom.AttributeNode }
		}
		return nameTest(xmldom.AttributeNode, test.Name)
	case xpath.TestName:
		return nameTest(principal, test.Name)
	}
	return func(*machine, *xmldom.Node) bool { return false }
}

func nameTest(kind xmldom.NodeKind, name xmldom.Name) nodePred {
	if name.Prefix == "" {
		// Lax namespace matching: an unprefixed test matches the local name
		// in any namespace, per the paper's convention that applications
		// declare a default namespace and omit prefixes.
		// The expected name is interned at compile time so the comparison
		// against parsed/decoded documents (whose names are interned too)
		// short-circuits on string pointer equality.
		local := xmldom.InternString(name.Local)
		return func(_ *machine, n *xmldom.Node) bool {
			return n.Kind == kind && n.Name.Local == local
		}
	}
	prefix, local := name.Prefix, xmldom.InternString(name.Local)
	return func(m *machine, n *xmldom.Node) bool {
		if n.Kind != kind || n.Name.Local != local {
			return false
		}
		uri, ok := m.ev.ns[prefix]
		return ok && n.Name.Space == uri
	}
}

// forwardAxis reports whether the axis yields candidates in document order
// without duplicates when applied to a single context node — the condition
// under which the per-step SortDocOrder can be skipped.
func forwardAxis(a xpath.Axis) bool {
	switch a {
	case xpath.AxisChild, xpath.AxisAttribute, xpath.AxisSelf,
		xpath.AxisDescendant, xpath.AxisDescendantOrSelf, xpath.AxisFollowingSibling:
		return true
	}
	return false
}

// runPath executes a lowered path over pooled node buffers.
func (m *machine) runPath(rooted bool, start instr, steps []cStep) (xdm.Sequence, error) {
	saved := m.ctx
	defer func() { m.ctx = saved }()

	curBuf := getNodeBuf()
	nextBuf := getNodeBuf()
	scratchBuf := getNodeBuf()
	defer func() {
		putNodeBuf(curBuf)
		putNodeBuf(nextBuf)
		putNodeBuf(scratchBuf)
	}()
	cur := (*curBuf)[:0]

	// Initial context.
	switch {
	case rooted:
		if m.ctx.item == nil {
			return nil, dynErr("XPDY0002", "context item is absent")
		}
		n, ok := m.ctx.item.(xdm.Node)
		if !ok {
			return nil, dynErr("XPTY0020", "context item is not a node")
		}
		cur = append(cur, n.N.Document())
	case start != nil:
		s, err := start(m)
		if err != nil {
			return nil, err
		}
		if len(steps) == 0 {
			return s, nil
		}
		ns, err := s.Nodes()
		if err != nil {
			return nil, dynErr("XPTY0019", "path step applied to non-node")
		}
		cur = append(cur, ns...)
	default:
		if m.ctx.item == nil {
			return nil, dynErr("XPDY0002", "context item is absent")
		}
		n, ok := m.ctx.item.(xdm.Node)
		if !ok {
			if len(steps) > 0 {
				return nil, dynErr("XPTY0019", "path step applied to non-node")
			}
			return xdm.Singleton(m.ctx.item), nil
		}
		cur = append(cur, n.N)
	}

	for si := range steps {
		st := &steps[si]
		next := (*nextBuf)[:0]
		var atomics xdm.Sequence

		if st.primary != nil {
			size := len(cur)
			for ci, cn := range cur {
				m.ctx.item = xdm.Node{N: cn}
				m.ctx.pos, m.ctx.size = ci+1, size
				cands, err := st.primary(m)
				if err != nil {
					return nil, err
				}
				filtered, err := m.applySeqPreds(cands, st.preds)
				if err != nil {
					return nil, err
				}
				for _, it := range filtered {
					if nd, ok := it.(xdm.Node); ok {
						next = append(next, nd.N)
					} else {
						atomics = append(atomics, it)
					}
				}
			}
		} else {
			for _, cn := range cur {
				if len(st.preds) == 0 {
					next = m.axisAppend(st.axis, st.match, cn, next)
					continue
				}
				scratch := m.axisAppend(st.axis, st.match, cn, (*scratchBuf)[:0])
				*scratchBuf = scratch
				filtered, err := m.filterNodePreds(scratch, st.preds, next)
				if err != nil {
					return nil, err
				}
				next = filtered
			}
		}

		if len(atomics) > 0 {
			if si != len(steps)-1 || len(next) > 0 {
				return nil, dynErr("XPTY0018", "path step yields mixed nodes and atomic values")
			}
			return atomics, nil
		}
		if len(cur) > 1 || st.primary != nil || !forwardAxis(st.axis) {
			next = xmldom.SortDocOrder(next)
		}
		// Swap buffers for the next step.
		*curBuf, *nextBuf = next, cur[:0]
		cur = next
	}

	return xdm.NodeSeq(cur), nil
}

// axisAppend appends the axis candidates of n that pass the node test to
// out, in axis order (reverse axes nearest-first, so positional predicates
// see axis positions).
func (m *machine) axisAppend(axis xpath.Axis, match nodePred, n *xmldom.Node, out []*xmldom.Node) []*xmldom.Node {
	switch axis {
	case xpath.AxisChild:
		for _, c := range n.Children {
			if match(m, c) {
				out = append(out, c)
			}
		}
	case xpath.AxisAttribute:
		for _, a := range n.Attrs {
			if match(m, a) {
				out = append(out, a)
			}
		}
	case xpath.AxisSelf:
		if match(m, n) {
			out = append(out, n)
		}
	case xpath.AxisParent:
		if n.Parent != nil && match(m, n.Parent) {
			out = append(out, n.Parent)
		}
	case xpath.AxisDescendant:
		out = m.descendantAppend(match, n, out)
	case xpath.AxisDescendantOrSelf:
		if match(m, n) {
			out = append(out, n)
		}
		out = m.descendantAppend(match, n, out)
	case xpath.AxisAncestor:
		for cur := n.Parent; cur != nil; cur = cur.Parent {
			if match(m, cur) {
				out = append(out, cur)
			}
		}
	case xpath.AxisAncestorOrSelf:
		for cur := n; cur != nil; cur = cur.Parent {
			if match(m, cur) {
				out = append(out, cur)
			}
		}
	case xpath.AxisFollowingSibling:
		if n.Parent == nil {
			return out
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				for _, fs := range sibs[i+1:] {
					if match(m, fs) {
						out = append(out, fs)
					}
				}
				break
			}
		}
	case xpath.AxisPrecedingSibling:
		if n.Parent == nil {
			return out
		}
		sibs := n.Parent.Children
		for i, s := range sibs {
			if s == n {
				for j := i - 1; j >= 0; j-- {
					if match(m, sibs[j]) {
						out = append(out, sibs[j])
					}
				}
				break
			}
		}
	}
	return out
}

func (m *machine) descendantAppend(match nodePred, n *xmldom.Node, out []*xmldom.Node) []*xmldom.Node {
	for _, c := range n.Children {
		if match(m, c) {
			out = append(out, c)
		}
		out = m.descendantAppend(match, c, out)
	}
	return out
}

// filterNodePreds applies predicate chains to a node candidate list with
// positional semantics, appending survivors to out. cands must not alias
// out.
func (m *machine) filterNodePreds(cands []*xmldom.Node, preds []instr, out []*xmldom.Node) ([]*xmldom.Node, error) {
	if len(preds) == 1 {
		return m.filterNodePred(cands, preds[0], out)
	}
	// Multiple predicates renumber positions between stages; ping-pong
	// through two scratch buffers.
	a := getNodeBuf()
	b := getNodeBuf()
	defer func() { putNodeBuf(a); putNodeBuf(b) }()
	curBuf, nxtBuf := a, b
	cur := cands
	for _, pred := range preds {
		nxt, err := m.filterNodePred(cur, pred, (*nxtBuf)[:0])
		if err != nil {
			return nil, err
		}
		*nxtBuf = nxt
		curBuf, nxtBuf = nxtBuf, curBuf
		cur = nxt
	}
	_ = curBuf
	return append(out, cur...), nil
}

func (m *machine) filterNodePred(cands []*xmldom.Node, pred instr, out []*xmldom.Node) ([]*xmldom.Node, error) {
	size := len(cands)
	for i, cn := range cands {
		m.ctx.item = xdm.Node{N: cn}
		m.ctx.pos, m.ctx.size = i+1, size
		r, err := pred(m)
		if err != nil {
			return nil, err
		}
		keep, err := predKeep(r, i)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, cn)
		}
	}
	return out, nil
}

// predKeep decides whether a predicate result keeps the item at 0-based
// index i: a single numeric value selects by position, anything else is an
// effective boolean value.
func predKeep(r xdm.Sequence, i int) (bool, error) {
	if len(r) == 1 {
		if v, ok := r[0].(xdm.Value); ok && v.T.IsNumeric() {
			return v.Number() == float64(i+1), nil
		}
	}
	return xdm.EffectiveBooleanValue(r)
}

// applySeqPreds filters a general item sequence through predicates with
// positional semantics (FilterExpr and primary path steps).
func (m *machine) applySeqPreds(seq xdm.Sequence, preds []instr) (xdm.Sequence, error) {
	if len(preds) == 0 {
		return seq, nil
	}
	saved := m.ctx
	defer func() { m.ctx = saved }()
	cur := seq
	for _, pred := range preds {
		size := len(cur)
		var next xdm.Sequence
		for i, it := range cur {
			m.ctx.item = it
			m.ctx.pos, m.ctx.size = i+1, size
			r, err := pred(m)
			if err != nil {
				return nil, err
			}
			keep, err := predKeep(r, i)
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

// cElem is a lowered element constructor.
type cElem struct {
	name    xmldom.Name
	attrs   []cAttr
	content []cContent
}

type cAttr struct {
	name  xmldom.Name
	parts []cPart
}

// cPart is a literal chunk or a computed part of an attribute value.
type cPart struct {
	text string
	expr instr // nil: literal text
}

// cContent is one content item: literal text, a nested constructor, or a
// computed expression.
type cContent struct {
	text string
	elem *cElem
	expr instr
}

func (lw *lowerer) lowerElement(x *xpath.ElementConstructor, scope lowerScope) (*cElem, error) {
	ce := &cElem{name: x.Name}
	for _, ac := range x.Attrs {
		ca := cAttr{name: ac.Name}
		for _, part := range ac.Parts {
			if tl, ok := part.(*xpath.TextLiteral); ok {
				ca.parts = append(ca.parts, cPart{text: tl.Text})
				continue
			}
			in, err := lw.lower(part, scope)
			if err != nil {
				return nil, err
			}
			ca.parts = append(ca.parts, cPart{expr: in})
		}
		ce.attrs = append(ce.attrs, ca)
	}
	for _, content := range x.Content {
		switch c := content.(type) {
		case *xpath.TextLiteral:
			ce.content = append(ce.content, cContent{text: c.Text})
		case *xpath.ElementConstructor:
			nested, err := lw.lowerElement(c, scope)
			if err != nil {
				return nil, err
			}
			ce.content = append(ce.content, cContent{elem: nested})
		default:
			in, err := lw.lower(content, scope)
			if err != nil {
				return nil, err
			}
			ce.content = append(ce.content, cContent{expr: in})
		}
	}
	return ce, nil
}

func (ce *cElem) build(m *machine, b *xmldom.Builder) error {
	b.StartElement(ce.name)
	for _, ca := range ce.attrs {
		var sb strings.Builder
		for _, part := range ca.parts {
			if part.expr == nil {
				sb.WriteString(part.text)
				continue
			}
			s, err := part.expr(m)
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
		b.Attribute(ca.name, sb.String())
	}
	for _, c := range ce.content {
		switch {
		case c.elem != nil:
			if err := c.elem.build(m, b); err != nil {
				return err
			}
		case c.expr != nil:
			s, err := c.expr(m)
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
		default:
			b.Text(c.text)
		}
	}
	b.EndElement()
	return nil
}

// --- update primitives ---

func (lw *lowerer) lowerEnqueue(x *xpath.EnqueueExpr, scope lowerScope) (instr, error) {
	what, err := lw.lower(x.What, scope)
	if err != nil {
		return nil, err
	}
	type cProp struct {
		name  string
		value atomInstr
	}
	props := make([]cProp, len(x.Props))
	for i, ps := range x.Props {
		v, err := lw.lowerAtomic(ps.Value, scope)
		if err != nil {
			return nil, err
		}
		props[i] = cProp{name: ps.Name, value: v}
	}
	queue := x.Queue
	return func(m *machine) (xdm.Sequence, error) {
		s, err := what(m)
		if err != nil {
			return nil, err
		}
		if len(s) != 1 {
			return nil, dynErr("DQTY0001", "do enqueue requires exactly one item, got %d", len(s))
		}
		n, ok := s[0].(xdm.Node)
		if !ok {
			return nil, dynErr("DQTY0002", "do enqueue requires an element or document node, got %s", xdm.Describe(s[0]))
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
		up := &EnqueueUpdate{Queue: queue, Doc: doc}
		if len(props) > 0 {
			up.Props = make(map[string]xdm.Value, len(props))
			for _, p := range props {
				v, empty, err := p.value(m)
				if err != nil {
					return nil, err
				}
				if empty {
					return nil, dynErr("DQTY0003", "property %q value is the empty sequence", p.name)
				}
				up.Props[p.name] = v
			}
		}
		m.ev.updates.Append(up)
		return xdm.EmptySequence, nil
	}, nil
}
