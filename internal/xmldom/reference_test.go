package xmldom

import "strings"

// referenceParse is a recursive-descent tree parser written apart from the
// walk that Parse and StreamEncode share: the differential tests and fuzz
// targets compare both ingest paths against it, so a defect in the walk
// cannot hide by showing up in both.
func referenceParse(input []byte) (*Node, error) {
	p := &parser{src: input, line: 1, col: 1}
	doc, err := p.parseDocument()
	if err != nil {
		return nil, err
	}
	doc.Seal()
	return doc, nil
}

func mustReferenceParse(src string) *Node {
	doc, err := referenceParse([]byte(src))
	if err != nil {
		panic(err)
	}
	return doc
}

// parseRawName reads a lexical QName (prefix:local) without resolving it.
func (p *parser) parseRawName() (string, error) {
	b, err := p.rawName()
	return string(b), err
}

func (p *parser) parseDocument() (*Node, error) {
	doc := &Node{Kind: DocumentNode}
	// Optional XML declaration.
	if p.hasPrefix("<?xml") {
		if err := p.skipPI(); err != nil {
			return nil, err
		}
	}
	seenRoot := false
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		switch {
		case p.hasPrefix("<!--"):
			c, err := p.parseComment()
			if err != nil {
				return nil, err
			}
			c.Parent = doc
			doc.Children = append(doc.Children, c)
		case p.hasPrefix("<!DOCTYPE"):
			if err := p.skipDoctype(); err != nil {
				return nil, err
			}
		case p.hasPrefix("<?"):
			pi, err := p.parsePI()
			if err != nil {
				return nil, err
			}
			pi.Parent = doc
			doc.Children = append(doc.Children, pi)
		case p.peek() == '<':
			if seenRoot {
				return nil, p.errf("multiple document elements")
			}
			el, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			el.Parent = doc
			doc.Children = append(doc.Children, el)
			seenRoot = true
		default:
			return nil, p.errf("content outside document element")
		}
	}
	if !seenRoot {
		return nil, p.errf("no document element")
	}
	return doc, nil
}

func (p *parser) parsePI() (*Node, error) {
	if err := p.expect("<?"); err != nil {
		return nil, err
	}
	target, err := p.parseRawName()
	if err != nil {
		return nil, err
	}
	if strings.EqualFold(target, "xml") {
		return nil, p.errf("misplaced XML declaration")
	}
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("?>") {
			data := string(p.src[start:p.pos])
			p.consume("?>")
			return &Node{Kind: ProcessingInstructionNode, Name: InternName(Name{Local: target}), Data: data}, nil
		}
		p.advance()
	}
	return nil, p.errf("unterminated processing instruction")
}

func (p *parser) parseComment() (*Node, error) {
	if err := p.expect("<!--"); err != nil {
		return nil, err
	}
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("-->") {
			data := string(p.src[start:p.pos])
			if strings.Contains(data, "--") {
				return nil, p.errf("'--' not allowed inside comment")
			}
			p.consume("-->")
			return &Node{Kind: CommentNode, Data: data}, nil
		}
		p.advance()
	}
	return nil, p.errf("unterminated comment")
}

type rawAttr struct {
	name  string
	value string
}

func (p *parser) parseElement() (*Node, error) {
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	rawName, err := p.parseRawName()
	if err != nil {
		return nil, err
	}
	var attrs []rawAttr
	nsMark := len(p.ns)
	defer func() { p.ns = p.ns[:nsMark] }()

	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("unterminated start tag <%s>", rawName)
		}
		c := p.peek()
		if c == '>' || c == '/' {
			break
		}
		aname, err := p.parseRawName()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return nil, err
		}
		p.skipSpace()
		aval, err := p.parseAttrValue()
		if err != nil {
			return nil, err
		}
		// Namespace declarations take effect immediately for this element.
		switch {
		case aname == "xmlns":
			p.ns = append(p.ns, nsBinding{prefix: "", uri: aval})
		case strings.HasPrefix(aname, "xmlns:"):
			px := aname[len("xmlns:"):]
			if aval == "" {
				return nil, p.errf("cannot undeclare prefix %q with empty URI", px)
			}
			p.ns = append(p.ns, nsBinding{prefix: px, uri: aval})
		default:
			for _, prev := range attrs {
				if prev.name == aname {
					return nil, p.errf("duplicate attribute %q", aname)
				}
			}
			attrs = append(attrs, rawAttr{name: aname, value: aval})
		}
	}

	el := &Node{Kind: ElementNode}
	prefix, local, err := splitQName(rawName)
	if err != nil {
		return nil, p.errf("%v", err)
	}
	uri, ok := p.lookup(prefix)
	if !ok {
		return nil, p.errf("undeclared namespace prefix %q", prefix)
	}
	el.Name = InternName(Name{Space: uri, Prefix: prefix, Local: local})

	for _, ra := range attrs {
		aprefix, alocal, err := splitQName(ra.name)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		auri := ""
		if aprefix != "" { // unprefixed attributes are in no namespace
			auri, ok = p.lookup(aprefix)
			if !ok {
				return nil, p.errf("undeclared namespace prefix %q", aprefix)
			}
		}
		an := &Node{Kind: AttributeNode, Name: InternName(Name{Space: auri, Prefix: aprefix, Local: alocal}), Data: ra.value, Parent: el}
		el.Attrs = append(el.Attrs, an)
	}

	if p.consume("/>") {
		return el, nil
	}
	if err := p.expect(">"); err != nil {
		return nil, err
	}
	if err := p.parseContent(el); err != nil {
		return nil, err
	}
	// Closing tag.
	closeName, err := p.parseRawName()
	if err != nil {
		return nil, err
	}
	if closeName != rawName {
		return nil, p.errf("mismatched end tag </%s>, expected </%s>", closeName, rawName)
	}
	p.skipSpace()
	if err := p.expect(">"); err != nil {
		return nil, err
	}
	return el, nil
}

// parseContent parses element content up to (and consuming) the "</" of the
// matching end tag.
func (p *parser) parseContent(parent *Node) error {
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			t := &Node{Kind: TextNode, Data: text.String(), Parent: parent}
			parent.Children = append(parent.Children, t)
			text.Reset()
		}
	}
	for {
		if p.eof() {
			return p.errf("unterminated element <%s>", parent.Name)
		}
		switch {
		case p.hasPrefix("</"):
			flush()
			p.consume("</")
			return nil
		case p.hasPrefix("<!--"):
			flush()
			c, err := p.parseComment()
			if err != nil {
				return err
			}
			c.Parent = parent
			parent.Children = append(parent.Children, c)
		case p.hasPrefix("<![CDATA["):
			if err := p.parseCDATA(&text); err != nil {
				return err
			}
		case p.hasPrefix("<?"):
			flush()
			pi, err := p.parsePI()
			if err != nil {
				return err
			}
			pi.Parent = parent
			parent.Children = append(parent.Children, pi)
		case p.peek() == '<':
			flush()
			child, err := p.parseElement()
			if err != nil {
				return err
			}
			child.Parent = parent
			parent.Children = append(parent.Children, child)
		case p.peek() == '&':
			r, err := p.parseReference()
			if err != nil {
				return err
			}
			text.WriteString(r)
		default:
			text.WriteByte(p.advance())
		}
	}
}

func (p *parser) parseCDATA(text *strings.Builder) error {
	if err := p.expect("<![CDATA["); err != nil {
		return err
	}
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("]]>") {
			text.Write(p.src[start:p.pos])
			p.consume("]]>")
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated CDATA section")
}
