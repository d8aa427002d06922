package xpath

import (
	"fmt"
	"strconv"
	"strings"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// Parser parses the Demaq expression language with one-token lookahead
// (two where a keyword's meaning depends on the token after it). Two tables
// drive it: exprForms, the keywords that open FLWOR, quantified, if and
// update expressions, and the operator table (infixSymbols, infixKeywords,
// prefixSymbols), which one binding-power loop, parseOperators, applies to
// every unary and binary operator. Paths, steps and constructors are
// parsed by recursive descent. It exposes its token cursor so that the
// QDL/QML statement parsers can interleave keyword parsing with embedded
// expression parsing on the same input.
type Parser struct {
	lex *Lexer
	tok Token
	ns  []nsBinding // constructor namespace scope
}

type nsBinding struct {
	prefix string
	uri    string
}

// NewParser creates a parser over src and primes the lookahead.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lex: NewLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseExprString parses a complete expression; trailing input is an error.
func ParseExprString(src string) (Expr, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected %s after expression", p.tok.Kind)
	}
	return e, nil
}

func (p *Parser) next() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}
}

// Peek returns the current lookahead token.
func (p *Parser) Peek() Token { return p.tok }

// Advance consumes and returns the current token.
func (p *Parser) Advance() (Token, error) {
	t := p.tok
	if err := p.next(); err != nil {
		return Token{}, err
	}
	return t, nil
}

// AtEOF reports whether all input is consumed.
func (p *Parser) AtEOF() bool { return p.tok.Kind == TokEOF }

// isName reports whether the lookahead is the given bare name.
func (p *Parser) isName(text string) bool {
	return p.tok.Kind == TokName && p.tok.Text == text
}

// eatName consumes the given name token if present.
func (p *Parser) eatName(text string) (bool, error) {
	if p.isName(text) {
		return true, p.next()
	}
	return false, nil
}

// ExpectName consumes a required keyword.
func (p *Parser) ExpectName(text string) error {
	if !p.isName(text) {
		return p.errf("expected %q, found %s %q", text, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

// ExpectKind consumes a required token kind.
func (p *Parser) ExpectKind(k TokKind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.tok.Kind)
	}
	return p.Advance()
}

// QName consumes a name token and returns its text.
func (p *Parser) QName() (string, error) {
	if p.tok.Kind != TokName {
		return "", p.errf("expected name, found %s", p.tok.Kind)
	}
	t, err := p.Advance()
	return t.Text, err
}

// peek2 returns the token after the lookahead without consuming anything.
func (p *Parser) peek2() (Token, error) {
	mark := p.lex.Mark()
	t, err := p.lex.Next()
	p.lex.ResetTo(mark)
	return t, err
}

// ParseExpr parses Expr ::= ExprSingle ("," ExprSingle)*.
func (p *Parser) ParseExpr() (Expr, error) {
	pos := p.tok.Pos
	first, err := p.ParseExprSingle()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokComma {
		return first, nil
	}
	items := []Expr{first}
	for p.tok.Kind == TokComma {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.ParseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &SequenceExpr{base: base{pos}, Items: items}, nil
}

// An exprForm is a keyword that opens a non-operator ExprSingle, the token
// that must follow it and the form's parser. Without that token the keyword
// is a name step.
type exprForm struct {
	keyword string
	follow  Token // Text is compared only when set
	parse   func(*Parser) (Expr, error)
}

// exprForms is filled in init because the form parsers recurse into
// ParseExprSingle, which reads it.
var exprForms []exprForm

func init() {
	exprForms = []exprForm{
		{"for", Token{Kind: TokVar}, (*Parser).parseFLWOR},
		{"let", Token{Kind: TokVar}, (*Parser).parseFLWOR},
		{"some", Token{Kind: TokVar}, (*Parser).parseQuantified},
		{"every", Token{Kind: TokVar}, (*Parser).parseQuantified},
		{"if", Token{Kind: TokLParen}, (*Parser).parseIf},
		{"do", Token{Kind: TokName, Text: "enqueue"}, (*Parser).parseUpdate},
		{"do", Token{Kind: TokName, Text: "reset"}, (*Parser).parseUpdate},
	}
}

// ParseExprSingle parses one expression without top-level commas.
func (p *Parser) ParseExprSingle() (Expr, error) {
	for _, f := range exprForms {
		if !p.isName(f.keyword) {
			continue
		}
		t2, err := p.peek2()
		if err != nil {
			return nil, err
		}
		if t2.Kind == f.follow.Kind && (f.follow.Text == "" || t2.Text == f.follow.Text) {
			return f.parse(p)
		}
	}
	return p.parseOperators(powLowest)
}

func (p *Parser) parseFLWOR() (Expr, error) {
	pos := p.tok.Pos
	fl := &FLWORExpr{base: base{pos}}
	for p.isName("for") || p.isName("let") {
		// Keyword only counts as a clause if followed by a variable;
		// otherwise it is a path step (XQuery has no reserved words).
		t2, err := p.peek2()
		if err != nil {
			return nil, err
		}
		if t2.Kind != TokVar {
			break
		}
		isFor := p.isName("for")
		if err := p.next(); err != nil {
			return nil, err
		}
		for {
			v, err := p.ExpectKind(TokVar)
			if err != nil {
				return nil, err
			}
			cl := FLWORClause{For: isFor, Var: v.Text}
			if isFor {
				if ok, err := p.eatName("at"); err != nil {
					return nil, err
				} else if ok {
					pv, err := p.ExpectKind(TokVar)
					if err != nil {
						return nil, err
					}
					cl.PosVar = pv.Text
				}
				if err := p.ExpectName("in"); err != nil {
					return nil, err
				}
			} else {
				if _, err := p.ExpectKind(TokAssign); err != nil {
					return nil, err
				}
			}
			e, err := p.ParseExprSingle()
			if err != nil {
				return nil, err
			}
			cl.Expr = e
			fl.Clauses = append(fl.Clauses, cl)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if len(fl.Clauses) == 0 {
		return nil, p.errf("expected for/let clause")
	}
	if ok, err := p.eatName("where"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.ParseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.isName("order") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.ExpectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.ParseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Key: key}
			if ok, err := p.eatName("descending"); err != nil {
				return nil, err
			} else if ok {
				spec.Descending = true
			} else if _, err := p.eatName("ascending"); err != nil {
				return nil, err
			}
			fl.OrderBy = append(fl.OrderBy, spec)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.ExpectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.ParseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	return fl, nil
}

func (p *Parser) parseQuantified() (Expr, error) {
	pos := p.tok.Pos
	q := &QuantifiedExpr{base: base{pos}, Every: p.isName("every")}
	if err := p.next(); err != nil {
		return nil, err
	}
	for {
		v, err := p.ExpectKind(TokVar)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectName("in"); err != nil {
			return nil, err
		}
		e, err := p.ParseExprSingle()
		if err != nil {
			return nil, err
		}
		q.Bindings = append(q.Bindings, FLWORClause{For: true, Var: v.Text, Expr: e})
		if p.tok.Kind != TokComma {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if err := p.ExpectName("satisfies"); err != nil {
		return nil, err
	}
	s, err := p.ParseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = s
	return q, nil
}

func (p *Parser) parseIf() (Expr, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // "if"
		return nil, err
	}
	if _, err := p.ExpectKind(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.ExpectKind(TokRParen); err != nil {
		return nil, err
	}
	if err := p.ExpectName("then"); err != nil {
		return nil, err
	}
	then, err := p.ParseExprSingle()
	if err != nil {
		return nil, err
	}
	ife := &IfExpr{base: base{pos}, Cond: cond, Then: then}
	// The else branch is optional in Demaq rule bodies (Sec. 3.3).
	if p.isName("else") {
		if err := p.next(); err != nil {
			return nil, err
		}
		els, err := p.ParseExprSingle()
		if err != nil {
			return nil, err
		}
		ife.Else = els
	}
	return ife, nil
}

func (p *Parser) parseUpdate() (Expr, error) {
	pos := p.tok.Pos
	if err := p.next(); err != nil { // "do"
		return nil, err
	}
	switch p.tok.Text {
	case "enqueue":
		if err := p.next(); err != nil {
			return nil, err
		}
		what, err := p.ParseExprSingle()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectName("into"); err != nil {
			return nil, err
		}
		q, err := p.QName()
		if err != nil {
			return nil, err
		}
		enq := &EnqueueExpr{base: base{pos}, What: what, Queue: q}
		for p.isName("with") {
			if err := p.next(); err != nil {
				return nil, err
			}
			pn, err := p.QName()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectName("value"); err != nil {
				return nil, err
			}
			pv, err := p.ParseExprSingle()
			if err != nil {
				return nil, err
			}
			enq.Props = append(enq.Props, PropSpec{Name: pn, Value: pv})
		}
		return enq, nil
	case "reset":
		if err := p.next(); err != nil {
			return nil, err
		}
		r := &ResetExpr{base: base{pos}}
		// "do reset S key E" — the slicing name is only recognized when
		// followed by the keyword "key"; a bare "do reset" resets the slice
		// of the current rule (Sec. 3.5.3).
		if p.tok.Kind == TokName {
			t2, err := p.peek2()
			if err != nil {
				return nil, err
			}
			if t2.Kind == TokName && t2.Text == "key" {
				s, err := p.QName()
				if err != nil {
					return nil, err
				}
				if err := p.ExpectName("key"); err != nil {
					return nil, err
				}
				k, err := p.ParseExprSingle()
				if err != nil {
					return nil, err
				}
				r.Slicing, r.Key = s, k
			}
		}
		return r, nil
	}
	return nil, p.errf("expected 'enqueue' or 'reset' after 'do'")
}

// Binding powers of the operator table, loosest first.
const (
	powLowest = iota
	powOr
	powAnd
	powCompare
	powRange
	powAdd
	powMul
	powUnion
	powPrefix
)

// An operator is one row of the operator table: its binding power, whether
// it is non-associative (a second operator of the same power may not follow
// it), and the node it builds. Rows of power powCompare build a
// ComparisonExpr, other infix rows a BinaryExpr, prefix rows a UnaryExpr.
type operator struct {
	pow      int
	nonAssoc bool
	bin      BinOpKind
	cmp      xdm.CompOp
	general  bool
	nodeIs   bool
	neg      bool
}

// infixSymbols and infixKeywords are the binary rows of the operator table.
// A keyword is an operator only where an operand has just ended; in operand
// position it is a name step (XQuery has no reserved words).
var infixSymbols = map[TokKind]operator{
	TokEq:    {pow: powCompare, nonAssoc: true, cmp: xdm.OpEq, general: true},
	TokNe:    {pow: powCompare, nonAssoc: true, cmp: xdm.OpNe, general: true},
	TokLt:    {pow: powCompare, nonAssoc: true, cmp: xdm.OpLt, general: true},
	TokLe:    {pow: powCompare, nonAssoc: true, cmp: xdm.OpLe, general: true},
	TokGt:    {pow: powCompare, nonAssoc: true, cmp: xdm.OpGt, general: true},
	TokGe:    {pow: powCompare, nonAssoc: true, cmp: xdm.OpGe, general: true},
	TokPlus:  {pow: powAdd, bin: BinAdd},
	TokMinus: {pow: powAdd, bin: BinSub},
	TokStar:  {pow: powMul, bin: BinMul},
	TokPipe:  {pow: powUnion, bin: BinUnion},
}

var infixKeywords = map[string]operator{
	"or":    {pow: powOr, bin: BinOr},
	"and":   {pow: powAnd, bin: BinAnd},
	"eq":    {pow: powCompare, nonAssoc: true, cmp: xdm.OpEq},
	"ne":    {pow: powCompare, nonAssoc: true, cmp: xdm.OpNe},
	"lt":    {pow: powCompare, nonAssoc: true, cmp: xdm.OpLt},
	"le":    {pow: powCompare, nonAssoc: true, cmp: xdm.OpLe},
	"gt":    {pow: powCompare, nonAssoc: true, cmp: xdm.OpGt},
	"ge":    {pow: powCompare, nonAssoc: true, cmp: xdm.OpGe},
	"is":    {pow: powCompare, nonAssoc: true, nodeIs: true},
	"to":    {pow: powRange, nonAssoc: true, bin: BinRange},
	"div":   {pow: powMul, bin: BinDiv},
	"idiv":  {pow: powMul, bin: BinIDiv},
	"mod":   {pow: powMul, bin: BinMod},
	"union": {pow: powUnion, bin: BinUnion},
}

// prefixSymbols are the unary rows: they bind tighter than every infix
// operator, so "-a | b" is (-a) | b.
var prefixSymbols = map[TokKind]operator{
	TokMinus: {pow: powPrefix, neg: true},
	TokPlus:  {pow: powPrefix},
}

// parseOperators parses an operand and then every infix operator that binds
// tighter than floor, each with a right operand of the operator's own power.
// An operator that a right operand left unparsed (it binds tighter than the
// operator just applied, or as tight as a non-associative one) ends this
// expression too.
func (p *Parser) parseOperators(floor int) (Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	ceiling := powPrefix // highest power the next operator may have
	for {
		op, ok := infixSymbols[p.tok.Kind]
		if p.tok.Kind == TokName {
			op, ok = infixKeywords[p.tok.Text]
		}
		if !ok || op.pow <= floor || op.pow > ceiling {
			return left, nil
		}
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseOperators(op.pow)
		if err != nil {
			return nil, err
		}
		if op.pow == powCompare {
			left = &ComparisonExpr{base: base{pos}, Op: op.cmp, General: op.general, NodeIs: op.nodeIs, Left: left, Right: right}
		} else {
			left = &BinaryExpr{base: base{pos}, Op: op.bin, Left: left, Right: right}
		}
		ceiling = op.pow
		if op.nonAssoc {
			ceiling--
		}
	}
}

// parseOperand parses a path expression under any number of prefix
// operators.
func (p *Parser) parseOperand() (Expr, error) {
	op, ok := prefixSymbols[p.tok.Kind]
	if !ok {
		return p.parsePath()
	}
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	operand, err := p.parseOperators(op.pow)
	if err != nil {
		return nil, err
	}
	return &UnaryExpr{base: base{pos}, Neg: op.neg, Operand: operand}, nil
}

// kind tests recognized in step position.
var kindTests = map[string]TestKind{
	"node":          TestNode,
	"text":          TestText,
	"comment":       TestComment,
	"element":       TestElement,
	"attribute":     TestAttribute,
	"document-node": TestDocument,
}

func (p *Parser) parsePath() (Expr, error) {
	pos := p.tok.Pos
	path := &PathExpr{base: base{pos}}
	switch p.tok.Kind {
	case TokSlash:
		path.Rooted = true
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.startsStep() {
			// "/" alone selects the root.
			return path, nil
		}
	case TokSlash2:
		path.Rooted = true
		path.Descend = true
		if err := p.next(); err != nil {
			return nil, err
		}
	}

	// First segment: an axis step or, unless rooted, a primary (filter)
	// expression.
	if !path.Rooted && !p.startsAxisStep() {
		prim, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		if p.tok.Kind != TokSlash && p.tok.Kind != TokSlash2 {
			return prim, nil
		}
		path.Start = prim
	} else {
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, st)
	}

	for p.tok.Kind == TokSlash || p.tok.Kind == TokSlash2 {
		descend := p.tok.Kind == TokSlash2
		if err := p.next(); err != nil {
			return nil, err
		}
		if descend {
			path.Steps = append(path.Steps, Step{Axis: AxisDescendantOrSelf, Test: NodeTest{Kind: TestNode}})
		}
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, st)
	}
	return path, nil
}

// startsStep reports whether the lookahead could begin a path step
// (used after a rooted "/").
func (p *Parser) startsStep() bool {
	switch p.tok.Kind {
	case TokName, TokStar, TokAt, TokDotDot, TokDot:
		return true
	}
	return false
}

// startsAxisStep reports whether the lookahead begins an axis step rather
// than a primary expression.
func (p *Parser) startsAxisStep() bool {
	switch p.tok.Kind {
	case TokAt, TokDotDot, TokStar:
		return true
	case TokName:
		// name '(' is a function call unless the name is a kind test;
		// name '::' is an axis; anything else is a child-axis name test.
		t2, err := p.peek2()
		if err != nil {
			return false
		}
		if t2.Kind == TokAxis {
			_, known := axisNames[p.tok.Text]
			return known
		}
		if t2.Kind == TokLParen {
			_, kind := kindTests[p.tok.Text]
			return kind
		}
		return true
	}
	return false
}

// parseStep parses one path step: axis step, abbreviation, or a primary
// filter expression such as a function call ("a/count(b)", "p/number(.)").
func (p *Parser) parseStep() (Step, error) {
	// Primary steps: variables, literals, parenthesized expressions, and
	// function calls whose name is neither a kind test nor an axis.
	primary := false
	switch p.tok.Kind {
	case TokVar, TokString, TokInteger, TokDecimal, TokDouble, TokLParen:
		primary = true
	case TokName:
		_, kind := kindTests[p.tok.Text]
		_, axis := axisNames[p.tok.Text]
		t2, err := p.peek2()
		primary = !kind && !axis && err == nil && t2.Kind == TokLParen
	}
	if primary {
		prim, err := p.parseFilter()
		return Step{Primary: prim}, err
	}
	var st Step
	var err error
	switch p.tok.Kind {
	case TokDot:
		st, err = Step{Axis: AxisSelf, Test: NodeTest{Kind: TestNode}}, p.next()
	case TokDotDot:
		st, err = Step{Axis: AxisParent, Test: NodeTest{Kind: TestNode}}, p.next()
	case TokAt:
		if err := p.next(); err != nil {
			return Step{}, err
		}
		st.Axis = AxisAttribute
		st.Test, err = p.parseNodeTest()
	case TokName, TokStar:
		if ax, ok := axisNames[p.tok.Text]; ok {
			if t2, perr := p.peek2(); perr == nil && t2.Kind == TokAxis {
				if err := p.next(); err != nil { // axis name
					return Step{}, err
				}
				if err := p.next(); err != nil { // '::'
					return Step{}, err
				}
				st.Axis = ax
				st.Test, err = p.parseNodeTest()
				break
			}
		}
		st.Axis = AxisChild
		st.Test, err = p.parseNodeTest()
		if st.Test.Kind == TestAttribute {
			st.Axis = AxisAttribute
		}
	default:
		return Step{}, p.errf("expected path step, found %s", p.tok.Kind)
	}
	if err != nil {
		return Step{}, err
	}
	st.Preds, err = p.parsePredicates()
	return st, err
}

// parsePredicates parses a possibly empty PredicateList.
func (p *Parser) parsePredicates() ([]Expr, error) {
	var preds []Expr
	for p.tok.Kind == TokLBracket {
		if err := p.next(); err != nil {
			return nil, err
		}
		pred, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.ExpectKind(TokRBracket); err != nil {
			return nil, err
		}
		preds = append(preds, pred)
	}
	return preds, nil
}

// parseNodeTest parses a name test or kind test.
func (p *Parser) parseNodeTest() (NodeTest, error) {
	if p.tok.Kind == TokStar {
		if err := p.next(); err != nil {
			return NodeTest{}, err
		}
		return NodeTest{Kind: TestAnyName}, nil
	}
	if p.tok.Kind != TokName {
		return NodeTest{}, p.errf("expected name test, found %s", p.tok.Kind)
	}
	name := p.tok.Text
	// Kind test?
	if kt, ok := kindTests[name]; ok {
		if t2, err := p.peek2(); err == nil && t2.Kind == TokLParen {
			if err := p.next(); err != nil { // kind name
				return NodeTest{}, err
			}
			if err := p.next(); err != nil { // '('
				return NodeTest{}, err
			}
			test := NodeTest{Kind: kt}
			if p.tok.Kind == TokName || p.tok.Kind == TokStar {
				if kt != TestElement && kt != TestAttribute {
					return NodeTest{}, p.errf("%s() takes no argument", name)
				}
				if p.tok.Kind == TokName {
					test.Name = splitTestName(p.tok.Text)
				}
				if err := p.next(); err != nil {
					return NodeTest{}, err
				}
			}
			if _, err := p.ExpectKind(TokRParen); err != nil {
				return NodeTest{}, err
			}
			return test, nil
		}
	}
	if err := p.next(); err != nil {
		return NodeTest{}, err
	}
	return NodeTest{Kind: TestName, Name: splitTestName(name)}, nil
}

func splitTestName(raw string) xmldom.Name {
	if i := strings.IndexByte(raw, ':'); i >= 0 {
		return xmldom.Name{Prefix: raw[:i], Local: raw[i+1:]}
	}
	return xmldom.Name{Local: raw}
}

// parseFilter parses PrimaryExpr PredicateList.
func (p *Parser) parseFilter() (Expr, error) {
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	preds, err := p.parsePredicates()
	if err != nil {
		return nil, err
	}
	if preds == nil {
		return prim, nil
	}
	return &FilterExpr{base: base{prim.Span()}, Primary: prim, Preds: preds}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokString:
		t, err := p.Advance()
		if err != nil {
			return nil, err
		}
		return &Literal{base: base{pos}, Value: xdm.NewString(t.Text)}, nil
	case TokInteger:
		t, err := p.Advance()
		if err != nil {
			return nil, err
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("integer literal out of range: %s", t.Text)
		}
		return &Literal{base: base{pos}, Value: xdm.NewInteger(i)}, nil
	case TokDecimal, TokDouble:
		t, err := p.Advance()
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad numeric literal: %s", t.Text)
		}
		if t.Kind == TokDouble {
			return &Literal{base: base{pos}, Value: xdm.NewDouble(f)}, nil
		}
		return &Literal{base: base{pos}, Value: xdm.NewDecimal(f)}, nil
	case TokVar:
		t, err := p.Advance()
		if err != nil {
			return nil, err
		}
		return &VarRef{base: base{pos}, Name: t.Text}, nil
	case TokLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokRParen {
			if err := p.next(); err != nil {
				return nil, err
			}
			return &SequenceExpr{base: base{pos}}, nil
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.ExpectKind(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokDot:
		if err := p.next(); err != nil {
			return nil, err
		}
		return &ContextItemExpr{base: base{pos}}, nil
	case TokLt:
		return p.parseDirectConstructor()
	case TokName:
		// Function call.
		if t2, err := p.peek2(); err == nil && t2.Kind == TokLParen {
			return p.parseFunctionCall()
		}
		return nil, p.errf("unexpected name %q", p.tok.Text)
	}
	return nil, p.errf("expected expression, found %s", p.tok.Kind)
}

func (p *Parser) parseFunctionCall() (Expr, error) {
	pos := p.tok.Pos
	name, err := p.QName()
	if err != nil {
		return nil, err
	}
	if _, err := p.ExpectKind(TokLParen); err != nil {
		return nil, err
	}
	qn := splitTestName(name)
	fc := &FuncCall{base: base{pos}, Prefix: qn.Prefix, Local: qn.Local}
	if p.tok.Kind != TokRParen {
		for {
			arg, err := p.ParseExprSingle()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, arg)
			if p.tok.Kind != TokComma {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.ExpectKind(TokRParen); err != nil {
		return nil, err
	}
	return fc, nil
}
