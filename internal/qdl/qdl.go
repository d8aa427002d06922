// Package qdl parses Demaq application programs: the Queue Definition
// Language statements of Sec. 2 (create queue / create property / create
// slicing) and the QML rule definitions of Sec. 3 (create rule). Rule
// bodies and property value expressions are parsed by the shared
// expression parser (internal/xpath); the rule compiler lives in
// internal/rule.
//
// Statements are separated by semicolons; (: ... :) comments are allowed
// anywhere. Example:
//
//	create queue finance kind basic mode persistent;
//	create property orderID as xs:string fixed
//	       queue order value //orderID
//	       queue confirmation value /confirmedOrder/ID;
//	create slicing orders on orderID;
//	create rule newOffer for crm
//	  if (//offerRequest) then do enqueue <check/> into finance;
package qdl

import (
	"fmt"
	"strconv"

	"demaq/internal/xdm"
	"demaq/internal/xpath"
)

// QueueKind enumerates queue kinds (Sec. 2.1).
type QueueKind string

// Queue kinds.
const (
	KindBasic           QueueKind = "basic"
	KindIncomingGateway QueueKind = "incomingGateway"
	KindOutgoingGateway QueueKind = "outgoingGateway"
	KindEcho            QueueKind = "echo"
)

// Policy is one "using NAME policy FILE" clause of a gateway declaration.
type Policy struct {
	Name string
	File string
}

// QueueDecl is a "create queue" statement.
type QueueDecl struct {
	Name       string
	Kind       QueueKind
	Persistent bool
	Schema     string // schema file or inline schema text ("" = none)
	Priority   int
	Interface  string // WSDL file for gateways
	Port       string
	Policies   []Policy
	ErrorQueue string
}

// PropBinding declares the value expression of a property on a queue set.
type PropBinding struct {
	Queues []string
	Value  xpath.Expr
}

// PropertyDecl is a "create property" statement.
type PropertyDecl struct {
	Name      string
	Type      xdm.Type
	TypeName  string
	Inherited bool
	Fixed     bool
	Bindings  []PropBinding
}

// SlicingDecl is a "create slicing" statement.
type SlicingDecl struct {
	Name     string
	Property string
}

// RuleDecl is a "create rule" statement (QML, Sec. 3.3).
type RuleDecl struct {
	Name       string
	Target     string // queue or slicing name
	ErrorQueue string
	Body       xpath.Expr
}

// CollectionDecl is a "create collection" statement (master data for
// fn:collection; an extension the paper's Fig. 7 example presumes).
type CollectionDecl struct {
	Name string
}

// Application is a parsed Demaq program.
type Application struct {
	Queues      []*QueueDecl
	Properties  []*PropertyDecl
	Slicings    []*SlicingDecl
	Rules       []*RuleDecl
	Collections []*CollectionDecl
}

// Parse parses a complete application program.
func Parse(src string) (*Application, error) {
	p, err := xpath.NewParser(src)
	if err != nil {
		return nil, err
	}
	app := &Application{}
	for !p.AtEOF() {
		// Tolerate stray semicolons between statements.
		if p.Peek().Kind == xpath.TokSemicolon {
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.ExpectName("create"); err != nil {
			return nil, err
		}
		kind, err := p.QName()
		if err != nil {
			return nil, err
		}
		switch kind {
		case "queue":
			q, err := parseQueue(p)
			if err != nil {
				return nil, err
			}
			app.Queues = append(app.Queues, q)
		case "property":
			pr, err := parseProperty(p)
			if err != nil {
				return nil, err
			}
			app.Properties = append(app.Properties, pr)
		case "slicing":
			s, err := parseSlicing(p)
			if err != nil {
				return nil, err
			}
			app.Slicings = append(app.Slicings, s)
		case "rule":
			r, err := parseRule(p)
			if err != nil {
				return nil, err
			}
			app.Rules = append(app.Rules, r)
		case "collection":
			name, err := p.QName()
			if err != nil {
				return nil, err
			}
			app.Collections = append(app.Collections, &CollectionDecl{Name: name})
		default:
			return nil, fmt.Errorf("qdl: unknown statement 'create %s'", kind)
		}
		// Statement terminator.
		switch p.Peek().Kind {
		case xpath.TokSemicolon:
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
		case xpath.TokEOF:
		default:
			return nil, fmt.Errorf("qdl: expected ';' after statement, found %s %q at %s",
				p.Peek().Kind, p.Peek().Text, p.Peek().Pos)
		}
	}
	return app, nil
}

// MustParse parses or panics; for tests and fixtures.
func MustParse(src string) *Application {
	app, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return app
}

func parseQueue(p *xpath.Parser) (*QueueDecl, error) {
	name, err := p.QName()
	if err != nil {
		return nil, err
	}
	q := &QueueDecl{Name: name, Kind: KindBasic, Persistent: true}
	seenKind, seenMode := false, false
	for p.Peek().Kind == xpath.TokName {
		switch p.Peek().Text {
		case "kind":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			k, err := p.QName()
			if err != nil {
				return nil, err
			}
			switch QueueKind(k) {
			case KindBasic, KindIncomingGateway, KindOutgoingGateway, KindEcho:
				q.Kind = QueueKind(k)
			default:
				return nil, fmt.Errorf("qdl: unknown queue kind %q", k)
			}
			seenKind = true
		case "mode":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			m, err := p.QName()
			if err != nil {
				return nil, err
			}
			switch m {
			case "persistent":
				q.Persistent = true
			case "transient":
				q.Persistent = false
			default:
				return nil, fmt.Errorf("qdl: unknown queue mode %q", m)
			}
			seenMode = true
		case "schema":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			tok, err := p.ExpectKind(xpath.TokString)
			if err != nil {
				return nil, err
			}
			q.Schema = tok.Text
		case "priority":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			tok, err := p.ExpectKind(xpath.TokInteger)
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(tok.Text)
			if err != nil {
				return nil, err
			}
			q.Priority = n
		case "interface":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			f, err := nameOrString(p)
			if err != nil {
				return nil, err
			}
			q.Interface = f
			if p.Peek().Kind == xpath.TokName && p.Peek().Text == "port" {
				if _, err := p.Advance(); err != nil {
					return nil, err
				}
				port, err := p.QName()
				if err != nil {
					return nil, err
				}
				q.Port = port
			}
		case "using":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			pname, err := p.QName()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectName("policy"); err != nil {
				return nil, err
			}
			pfile, err := nameOrString(p)
			if err != nil {
				return nil, err
			}
			q.Policies = append(q.Policies, Policy{Name: pname, File: pfile})
		case "errorqueue":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			e, err := p.QName()
			if err != nil {
				return nil, err
			}
			q.ErrorQueue = e
		default:
			goto done
		}
	}
done:
	if !seenKind || !seenMode {
		// The paper's examples always state both; requiring them catches
		// declaration typos early.
		return nil, fmt.Errorf("qdl: queue %q requires 'kind' and 'mode'", q.Name)
	}
	if (q.Kind == KindIncomingGateway || q.Kind == KindOutgoingGateway) && !q.Persistent {
		for _, pol := range q.Policies {
			if pol.Name == "WS-ReliableMessaging" {
				return nil, fmt.Errorf("qdl: queue %q: reliable messaging requires a persistent queue", q.Name)
			}
		}
	}
	return q, nil
}

// nameOrString accepts a bare name token (file names like supplier.wsdl lex
// as one name) or a string literal.
func nameOrString(p *xpath.Parser) (string, error) {
	if p.Peek().Kind == xpath.TokString {
		tok, err := p.Advance()
		return tok.Text, err
	}
	return p.QName()
}

func parseProperty(p *xpath.Parser) (*PropertyDecl, error) {
	name, err := p.QName()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectName("as"); err != nil {
		return nil, err
	}
	typeName, err := p.QName()
	if err != nil {
		return nil, err
	}
	typ, ok := xdm.TypeByName(typeName)
	if !ok {
		return nil, fmt.Errorf("qdl: unknown property type %q", typeName)
	}
	d := &PropertyDecl{Name: name, Type: typ, TypeName: typeName}
	for p.Peek().Kind == xpath.TokName {
		done := false
		switch p.Peek().Text {
		case "inherited":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			d.Inherited = true
		case "fixed":
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
			d.Fixed = true
		default:
			done = true
		}
		if done {
			break
		}
	}
	for p.Peek().Kind == xpath.TokName && p.Peek().Text == "queue" {
		if _, err := p.Advance(); err != nil {
			return nil, err
		}
		var queues []string
		for {
			qn, err := p.QName()
			if err != nil {
				return nil, err
			}
			queues = append(queues, qn)
			if p.Peek().Kind != xpath.TokComma {
				break
			}
			if _, err := p.Advance(); err != nil {
				return nil, err
			}
		}
		if err := p.ExpectName("value"); err != nil {
			return nil, err
		}
		expr, err := p.ParseExprSingle()
		if err != nil {
			return nil, err
		}
		d.Bindings = append(d.Bindings, PropBinding{Queues: queues, Value: normalizeBooleanName(expr)})
	}
	if len(d.Bindings) == 0 {
		return nil, fmt.Errorf("qdl: property %q needs at least one 'queue ... value ...' binding", name)
	}
	return d, nil
}

// normalizeBooleanName turns the bare names "true" and "false" — which the
// paper uses as property default values ("value false") but which XPath
// would read as child element tests — into boolean literals.
func normalizeBooleanName(e xpath.Expr) xpath.Expr {
	pe, ok := e.(*xpath.PathExpr)
	if !ok || pe.Rooted || pe.Start != nil || len(pe.Steps) != 1 {
		return e
	}
	st := pe.Steps[0]
	if st.Axis != xpath.AxisChild || st.Test.Kind != xpath.TestName || len(st.Preds) != 0 {
		return e
	}
	switch st.Test.Name.Local {
	case "true":
		return xpath.NewLiteral(xdm.NewBool(true))
	case "false":
		return xpath.NewLiteral(xdm.NewBool(false))
	}
	return e
}

func parseSlicing(p *xpath.Parser) (*SlicingDecl, error) {
	name, err := p.QName()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectName("on"); err != nil {
		return nil, err
	}
	prop, err := p.QName()
	if err != nil {
		return nil, err
	}
	return &SlicingDecl{Name: name, Property: prop}, nil
}

func parseRule(p *xpath.Parser) (*RuleDecl, error) {
	name, err := p.QName()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectName("for"); err != nil {
		return nil, err
	}
	target, err := p.QName()
	if err != nil {
		return nil, err
	}
	r := &RuleDecl{Name: name, Target: target}
	if p.Peek().Kind == xpath.TokName && p.Peek().Text == "errorqueue" {
		if _, err := p.Advance(); err != nil {
			return nil, err
		}
		e, err := p.QName()
		if err != nil {
			return nil, err
		}
		r.ErrorQueue = e
	}
	body, err := p.ParseExprSingle()
	if err != nil {
		return nil, err
	}
	r.Body = body
	return r, nil
}
