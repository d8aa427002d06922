package xpath

import (
	"fmt"
	"strings"

	"demaq/internal/xmldom"
)

// Direct element constructors are parsed in "raw mode": when the token
// stream yields '<' in a position where a primary expression is expected,
// the parser rewinds the lexer and scans XML syntax character by character,
// switching back to token mode inside enclosed { ... } expressions.

func (p *Parser) parseDirectConstructor() (Expr, error) {
	pos := p.tok.Pos
	src := p.lex.Source()
	if pos.Offset+1 >= len(src) || !isNameStartByte(src[pos.Offset+1]) {
		return nil, p.errf("expected expression, found '<'")
	}
	p.lex.ResetTo(pos)
	el, err := p.parseConstructorRaw()
	if err != nil {
		return nil, err
	}
	// Resume token mode after the constructor.
	if err := p.next(); err != nil {
		return nil, err
	}
	return el, nil
}

func (p *Parser) rawEOF() bool         { return p.lex.eof() }
func (p *Parser) rawPeek() byte        { return p.lex.peekByte() }
func (p *Parser) rawPeekAt(i int) byte { return p.lex.peekAt(i) }
func (p *Parser) rawAdv() byte         { return p.lex.adv() }

func (p *Parser) rawHasPrefix(s string) bool {
	for i := 0; i < len(s); i++ {
		if p.lex.peekAt(i) != s[i] {
			return false
		}
	}
	return true
}

func (p *Parser) rawConsume(s string) bool {
	if p.rawHasPrefix(s) {
		for range s {
			p.rawAdv()
		}
		return true
	}
	return false
}

func (p *Parser) rawErrf(format string, args ...any) error {
	return &SyntaxError{Pos: p.lex.Mark(), Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) rawSkipSpace() {
	for !p.rawEOF() {
		switch p.rawPeek() {
		case ' ', '\t', '\r', '\n':
			p.rawAdv()
		default:
			return
		}
	}
}

func (p *Parser) rawQName() (string, error) {
	if p.rawEOF() || !isNameStartByte(p.rawPeek()) {
		return "", p.rawErrf("expected name in constructor")
	}
	var sb strings.Builder
	for !p.rawEOF() {
		c := p.rawPeek()
		if isNameByte(c) || c == ':' {
			sb.WriteByte(p.rawAdv())
		} else {
			break
		}
	}
	return sb.String(), nil
}

func (p *Parser) resolveConstructorName(raw string, isAttr bool) (xmldom.Name, error) {
	prefix, local := "", raw
	if i := strings.IndexByte(raw, ':'); i >= 0 {
		prefix, local = raw[:i], raw[i+1:]
	}
	if prefix == "" {
		if isAttr {
			return xmldom.Name{Local: local}, nil
		}
		// Default element namespace from constructor scope.
		for i := len(p.ns) - 1; i >= 0; i-- {
			if p.ns[i].prefix == "" {
				return xmldom.Name{Space: p.ns[i].uri, Local: local}, nil
			}
		}
		return xmldom.Name{Local: local}, nil
	}
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return xmldom.Name{Space: p.ns[i].uri, Prefix: prefix, Local: local}, nil
		}
	}
	return xmldom.Name{}, p.rawErrf("undeclared namespace prefix %q in constructor", prefix)
}

// parseConstructorRaw parses a direct element constructor; the lexer is
// positioned at '<'.
func (p *Parser) parseConstructorRaw() (*ElementConstructor, error) {
	pos := p.lex.Mark()
	if !p.rawConsume("<") {
		return nil, p.rawErrf("expected '<'")
	}
	rawName, err := p.rawQName()
	if err != nil {
		return nil, err
	}
	nsMark := len(p.ns)
	defer func() { p.ns = p.ns[:nsMark] }()

	type rawAttrC struct {
		name  string
		parts []Expr
	}
	var attrs []rawAttrC
	for {
		p.rawSkipSpace()
		if p.rawEOF() {
			return nil, p.rawErrf("unterminated constructor <%s>", rawName)
		}
		c := p.rawPeek()
		if c == '>' || c == '/' {
			break
		}
		aname, err := p.rawQName()
		if err != nil {
			return nil, err
		}
		p.rawSkipSpace()
		if !p.rawConsume("=") {
			return nil, p.rawErrf("expected '=' after attribute %q", aname)
		}
		p.rawSkipSpace()
		parts, err := p.parseAttrValueRaw()
		if err != nil {
			return nil, err
		}
		switch {
		case aname == "xmlns" || strings.HasPrefix(aname, "xmlns:"):
			if len(parts) != 1 {
				return nil, p.rawErrf("namespace declaration value must be a literal")
			}
			lit, ok := parts[0].(*TextLiteral)
			if !ok {
				return nil, p.rawErrf("namespace declaration value must be a literal")
			}
			prefix := ""
			if strings.HasPrefix(aname, "xmlns:") {
				prefix = aname[len("xmlns:"):]
			}
			p.ns = append(p.ns, nsBinding{prefix: prefix, uri: lit.Text})
		default:
			attrs = append(attrs, rawAttrC{name: aname, parts: parts})
		}
	}

	ec := &ElementConstructor{base: base{pos}}
	ec.Name, err = p.resolveConstructorName(rawName, false)
	if err != nil {
		return nil, err
	}
	for _, ra := range attrs {
		an, err := p.resolveConstructorName(ra.name, true)
		if err != nil {
			return nil, err
		}
		ec.Attrs = append(ec.Attrs, AttrConstructor{Name: an, Parts: ra.parts})
	}

	if p.rawConsume("/>") {
		return ec, nil
	}
	if !p.rawConsume(">") {
		return nil, p.rawErrf("expected '>' in constructor <%s>", rawName)
	}

	var text strings.Builder
	flush := func(force bool) {
		if text.Len() == 0 {
			return
		}
		t := text.String()
		text.Reset()
		// Boundary whitespace is stripped (XQuery boundary-space strip),
		// unless it was produced by CDATA/entities (force).
		if !force && strings.TrimSpace(t) == "" {
			return
		}
		ec.Content = append(ec.Content, &TextLiteral{base: base{p.lex.Mark()}, Text: t})
	}

	for {
		if p.rawEOF() {
			return nil, p.rawErrf("unterminated constructor <%s>", rawName)
		}
		switch {
		case p.rawHasPrefix("</"):
			flush(false)
			p.rawConsume("</")
			closeName, err := p.rawQName()
			if err != nil {
				return nil, err
			}
			if closeName != rawName {
				return nil, p.rawErrf("mismatched constructor end tag </%s>, expected </%s>", closeName, rawName)
			}
			p.rawSkipSpace()
			if !p.rawConsume(">") {
				return nil, p.rawErrf("expected '>' after </%s", closeName)
			}
			return ec, nil
		case p.rawHasPrefix("<!--"):
			flush(false)
			p.rawConsume("<!--")
			for !p.rawEOF() && !p.rawHasPrefix("-->") {
				p.rawAdv()
			}
			if !p.rawConsume("-->") {
				return nil, p.rawErrf("unterminated comment in constructor")
			}
		case p.rawHasPrefix("<![CDATA["):
			p.rawConsume("<![CDATA[")
			for !p.rawEOF() && !p.rawHasPrefix("]]>") {
				text.WriteByte(p.rawAdv())
			}
			if !p.rawConsume("]]>") {
				return nil, p.rawErrf("unterminated CDATA in constructor")
			}
			flush(true)
		case p.rawPeek() == '<':
			flush(false)
			child, err := p.parseConstructorRaw()
			if err != nil {
				return nil, err
			}
			ec.Content = append(ec.Content, child)
		case p.rawPeek() == '{':
			if p.rawPeekAt(1) == '{' {
				p.rawAdv()
				p.rawAdv()
				text.WriteByte('{')
				continue
			}
			flush(false)
			e, err := p.parseEnclosedRaw()
			if err != nil {
				return nil, err
			}
			ec.Content = append(ec.Content, e)
		case p.rawPeek() == '}':
			if p.rawPeekAt(1) == '}' {
				p.rawAdv()
				p.rawAdv()
				text.WriteByte('}')
				continue
			}
			return nil, p.rawErrf("unescaped '}' in constructor content")
		case p.rawPeek() == '&':
			s, err := p.lex.lexEntity()
			if err != nil {
				return nil, err
			}
			text.WriteString(s)
		default:
			text.WriteByte(p.rawAdv())
		}
	}
}

// parseAttrValueRaw parses a quoted attribute value that may interleave
// literal text with enclosed expressions.
func (p *Parser) parseAttrValueRaw() ([]Expr, error) {
	if p.rawEOF() {
		return nil, p.rawErrf("expected attribute value")
	}
	quote := p.rawPeek()
	if quote != '"' && quote != '\'' {
		return nil, p.rawErrf("attribute value must be quoted")
	}
	p.rawAdv()
	var parts []Expr
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, &TextLiteral{base: base{p.lex.Mark()}, Text: text.String()})
			text.Reset()
		}
	}
	for {
		if p.rawEOF() {
			return nil, p.rawErrf("unterminated attribute value")
		}
		c := p.rawPeek()
		switch {
		case c == quote:
			// Doubled quote is an escaped quote character.
			if p.rawPeekAt(1) == quote {
				p.rawAdv()
				p.rawAdv()
				text.WriteByte(quote)
				continue
			}
			p.rawAdv()
			flush()
			if parts == nil {
				parts = []Expr{&TextLiteral{base: base{p.lex.Mark()}, Text: ""}}
			}
			return parts, nil
		case c == '{':
			if p.rawPeekAt(1) == '{' {
				p.rawAdv()
				p.rawAdv()
				text.WriteByte('{')
				continue
			}
			flush()
			e, err := p.parseEnclosedRaw()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
		case c == '}':
			if p.rawPeekAt(1) == '}' {
				p.rawAdv()
				p.rawAdv()
				text.WriteByte('}')
				continue
			}
			return nil, p.rawErrf("unescaped '}' in attribute value")
		case c == '&':
			s, err := p.lex.lexEntity()
			if err != nil {
				return nil, err
			}
			text.WriteString(s)
		case c == '<':
			return nil, p.rawErrf("'<' not allowed in attribute value")
		default:
			text.WriteByte(p.rawAdv())
		}
	}
}

// parseEnclosedRaw parses "{ Expr }" starting with the lexer positioned at
// '{', and leaves the lexer positioned immediately after the closing '}'.
func (p *Parser) parseEnclosedRaw() (Expr, error) {
	if err := p.next(); err != nil { // tokenizes the '{'
		return nil, err
	}
	if p.tok.Kind != TokLBrace {
		return nil, p.errf("expected '{'")
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.ParseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokRBrace {
		return nil, p.errf("expected '}' to close enclosed expression, found %s", p.tok.Kind)
	}
	// Resume raw scanning right after the '}' (one byte).
	end := p.tok.Pos
	p.lex.ResetTo(Pos{Offset: end.Offset + 1, Line: end.Line, Col: end.Col + 1})
	return e, nil
}
