package xpath

import (
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// Expr is the interface implemented by all AST nodes.
type Expr interface {
	exprNode()
	// Span returns the source position of the expression's first token.
	Span() Pos
}

type base struct{ P Pos }

func (base) exprNode() {}

// Span implements Expr.
func (b base) Span() Pos { return b.P }

// SequenceExpr is the comma operator: (a, b, c).
type SequenceExpr struct {
	base
	Items []Expr
}

// FLWORExpr is a for/let ... where ... order by ... return expression.
type FLWORExpr struct {
	base
	Clauses []FLWORClause
	Where   Expr // may be nil
	OrderBy []OrderSpec
	Return  Expr
}

// FLWORClause is either a for or a let binding.
type FLWORClause struct {
	For    bool   // true: for, false: let
	Var    string // variable name without '$'
	PosVar string // "at $p" positional variable, for-clauses only
	Expr   Expr
}

// OrderSpec is one "order by" key.
type OrderSpec struct {
	Key        Expr
	Descending bool
	EmptyLeast bool
}

// QuantifiedExpr is some/every $v in E satisfies E.
type QuantifiedExpr struct {
	base
	Every     bool
	Bindings  []FLWORClause // For is implied
	Satisfies Expr
}

// IfExpr is if (C) then T else E. Else may be nil: Demaq allows omitting the
// else branch of a rule body, which defaults to the empty sequence (Sec. 3.3).
type IfExpr struct {
	base
	Cond Expr
	Then Expr
	Else Expr
}

// BinOpKind enumerates binary operators other than comparisons.
type BinOpKind uint8

// Binary operators.
const (
	BinOr BinOpKind = iota
	BinAnd
	BinAdd
	BinSub
	BinMul
	BinDiv
	BinIDiv
	BinMod
	BinUnion
	BinRange // to
)

// BinaryExpr is a binary operator application.
type BinaryExpr struct {
	base
	Op    BinOpKind
	Left  Expr
	Right Expr
}

// ComparisonExpr is a general (=) or value (eq) comparison, or the node
// identity test "is".
type ComparisonExpr struct {
	base
	Op      xdm.CompOp
	General bool
	NodeIs  bool // "is": node identity, Op ignored
	Left    Expr
	Right   Expr
}

// UnaryExpr is unary minus (or plus, which is a no-op retained for spans).
type UnaryExpr struct {
	base
	Neg     bool
	Operand Expr
}

// Axis enumerates the supported XPath axes.
type Axis uint8

// Supported axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAttribute
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowingSibling
	AxisPrecedingSibling
)

var axisNames = map[string]Axis{
	"child":              AxisChild,
	"descendant":         AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf,
	"self":               AxisSelf,
	"parent":             AxisParent,
	"attribute":          AxisAttribute,
	"ancestor":           AxisAncestor,
	"ancestor-or-self":   AxisAncestorOrSelf,
	"following-sibling":  AxisFollowingSibling,
	"preceding-sibling":  AxisPrecedingSibling,
}

// String returns the axis name.
func (a Axis) String() string {
	for n, ax := range axisNames {
		if ax == a {
			return n
		}
	}
	return "?"
}

// TestKind classifies node tests.
type TestKind uint8

// Node test kinds.
const (
	TestName      TestKind = iota // name or prefix:name
	TestAnyName                   // *
	TestNode                      // node()
	TestText                      // text()
	TestComment                   // comment()
	TestElement                   // element() / element(name)
	TestAttribute                 // attribute() / attribute(name)
	TestDocument                  // document-node()
)

// NodeTest is the test applied by an axis step.
//
// Name matching follows the paper's convention that applications declare a
// default namespace and omit prefixes (Sec. 2): an unprefixed name test
// matches the local name in any namespace. A prefixed test matches the
// statically-known URI bound to the prefix.
type NodeTest struct {
	Kind TestKind
	Name xmldom.Name // for TestName/TestElement/TestAttribute with name
}

// Step is one step of a path expression: either an axis step (Axis/Test)
// or, per the XQuery grammar where any filter expression can be a step, a
// primary expression evaluated once per context item (e.g. the function
// call in "$orders/price/number(.)").
type Step struct {
	Axis    Axis
	Test    NodeTest
	Primary Expr // non-nil: primary step; Axis/Test unused
	Preds   []Expr
}

// PathExpr is a (possibly rooted) path. If Start is nil the path begins at
// the context item (or at the root for Rooted paths).
type PathExpr struct {
	base
	Rooted  bool // leading "/" or "//"
	Descend bool // leading "//": implicit descendant-or-self::node() first
	Start   Expr // primary expression start, e.g. qs:queue("x")/a
	Steps   []Step
}

// FilterExpr is a primary expression with predicates: E[p1][p2].
type FilterExpr struct {
	base
	Primary Expr
	Preds   []Expr
}

// VarRef references a bound variable.
type VarRef struct {
	base
	Name string
}

// ContextItemExpr is ".".
type ContextItemExpr struct{ base }

// Literal is a constant atomic value.
type Literal struct {
	base
	Value xdm.Value
}

// NewLiteral constructs a literal expression; used by statement parsers and
// the rule compiler's rewrites.
func NewLiteral(v xdm.Value) *Literal { return &Literal{Value: v} }

// FuncCall is a (possibly prefixed) function call.
type FuncCall struct {
	base
	Prefix string
	Local  string
	Args   []Expr
}

// ElementConstructor is a direct element constructor. Content interleaves
// TextLiteral nodes with enclosed expressions and nested constructors.
type ElementConstructor struct {
	base
	Name    xmldom.Name
	Attrs   []AttrConstructor
	Content []Expr
}

// AttrConstructor is one attribute of a direct constructor; its value
// concatenates literal text and enclosed expression results.
type AttrConstructor struct {
	Name  xmldom.Name
	Parts []Expr // TextLiteral or arbitrary enclosed expressions
}

// TextLiteral is literal character data inside a constructor.
type TextLiteral struct {
	base
	Text string
}

// EnqueueExpr is the Demaq update primitive
// "do enqueue Expr into QName (with PName value Expr)*".
type EnqueueExpr struct {
	base
	What  Expr
	Queue string
	Props []PropSpec
}

// PropSpec is one "with name value expr" clause.
type PropSpec struct {
	Name  string
	Value Expr
}

// ResetExpr is the Demaq update primitive "do reset [SName key Expr]".
type ResetExpr struct {
	base
	Slicing string // empty: slicing of the current rule
	Key     Expr   // nil: slice key of the current message
}

// Inspect traverses an expression tree depth-first in source order: it
// calls f(e) and, when f returns true, visits e's subexpressions. Nil
// subexpressions are skipped.
func Inspect(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *SequenceExpr:
		for _, it := range x.Items {
			Inspect(it, f)
		}
	case *FLWORExpr:
		for _, cl := range x.Clauses {
			Inspect(cl.Expr, f)
		}
		Inspect(x.Where, f)
		for _, os := range x.OrderBy {
			Inspect(os.Key, f)
		}
		Inspect(x.Return, f)
	case *QuantifiedExpr:
		for _, b := range x.Bindings {
			Inspect(b.Expr, f)
		}
		Inspect(x.Satisfies, f)
	case *IfExpr:
		Inspect(x.Cond, f)
		Inspect(x.Then, f)
		Inspect(x.Else, f)
	case *BinaryExpr:
		Inspect(x.Left, f)
		Inspect(x.Right, f)
	case *ComparisonExpr:
		Inspect(x.Left, f)
		Inspect(x.Right, f)
	case *UnaryExpr:
		Inspect(x.Operand, f)
	case *PathExpr:
		Inspect(x.Start, f)
		for _, st := range x.Steps {
			Inspect(st.Primary, f)
			for _, p := range st.Preds {
				Inspect(p, f)
			}
		}
	case *FilterExpr:
		Inspect(x.Primary, f)
		for _, p := range x.Preds {
			Inspect(p, f)
		}
	case *FuncCall:
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *ElementConstructor:
		for _, a := range x.Attrs {
			for _, part := range a.Parts {
				Inspect(part, f)
			}
		}
		for _, c := range x.Content {
			Inspect(c, f)
		}
	case *EnqueueExpr:
		Inspect(x.What, f)
		for _, p := range x.Props {
			Inspect(p.Value, f)
		}
	case *ResetExpr:
		Inspect(x.Key, f)
	}
}
