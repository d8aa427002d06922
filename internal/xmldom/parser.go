package xmldom

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseError describes a well-formedness violation with its input position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parse parses a complete XML document and returns its document node.
// The parser is namespace-aware, supports the five predefined entities and
// numeric character references, CDATA sections, comments and processing
// instructions. DOCTYPE declarations are skipped; internal subsets that
// declare entities are rejected (messages are exchanged between peers and
// must be self-contained).
func Parse(input []byte) (*Node, error) {
	doc := &Node{Kind: DocumentNode}
	p := &parser{src: input, line: 1, col: 1, h: &treeBuilder{open: []*Node{doc}}}
	if err := p.document(); err != nil {
		return nil, err
	}
	doc.Seal()
	return doc, nil
}

// ParseString is Parse for string input.
func ParseString(input string) (*Node, error) { return Parse([]byte(input)) }

// MustParse parses or panics; intended for tests and static fixtures.
func MustParse(input string) *Node {
	doc, err := ParseString(input)
	if err != nil {
		panic(err)
	}
	return doc
}

// nsBinding is one in-scope namespace declaration.
type nsBinding struct {
	prefix string
	uri    string
}

// parseDetached parses a single element (not a whole document) with the
// given namespace bindings already in scope. It is used to re-parse the
// opaque spans of projected encodings (decode.go), whose surrounding
// declarations were captured at encode time. The returned subtree is not
// sealed; the caller splices it into a tree and seals the whole document.
func parseDetached(src string, ns []nsBinding) (*Node, error) {
	holder := &Node{}
	p := &parser{src: []byte(src), line: 1, col: 1, ns: ns, h: &treeBuilder{open: []*Node{holder}}}
	if err := p.element(); err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errf("trailing bytes after element")
	}
	el := holder.Children[0]
	el.Parent = nil
	return el, nil
}

// The grammar is written once, as a walk that reports what it reads to a
// handler: Parse and parseDetached build a tree (treeBuilder below), and
// StreamEncode emits the binary encoding directly (stream.go). Every
// well-formedness check lives in the walk, so both ingest paths accept the
// same inputs and reject the rest with the same errors.

// handler receives the events of one walk. Slices passed to it are only
// valid during the call.
type handler interface {
	// start reports a start tag once its name and attributes are resolved;
	// outer holds the namespace bindings in scope outside the element.
	start(name Name, attrs []attr, outer []nsBinding)
	// end closes the innermost open element; raw is the whole element as
	// it appears in the input.
	end(raw []byte)
	// text reports character data with references resolved and adjacent
	// CDATA sections merged in.
	text(data []byte)
	comment(data []byte)
	pi(target string, data []byte)
}

// attr is one attribute of a start tag.
type attr struct {
	raw   string // lexical QName, for the duplicate check
	name  Name
	value string
}

type parser struct {
	src  []byte
	pos  int
	line int
	col  int
	ns   []nsBinding // stack of in-scope bindings
	h    handler

	// Scratch shared by every nesting level: a start tag is reported
	// before its content is read, and text is reported before any other
	// event.
	attrs []attr
	text  []byte
}

const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
		p.col = 1
	} else {
		p.col++
	}
	return c
}

// advanceN is n calls of advance over bytes the caller has examined.
func (p *parser) advanceN(n int) {
	run := p.src[p.pos : p.pos+n]
	if nl := bytes.Count(run, []byte{'\n'}); nl > 0 {
		p.line += nl
		p.col = n - bytes.LastIndexByte(run, '\n')
	} else {
		p.col += n
	}
	p.pos += n
}

func (p *parser) skipSpace() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n':
			p.advance()
		default:
			return
		}
	}
}

func (p *parser) hasPrefix(s string) bool {
	return p.pos+len(s) <= len(p.src) && string(p.src[p.pos:p.pos+len(s)]) == s
}

func (p *parser) consume(s string) bool {
	if p.hasPrefix(s) {
		for range s {
			p.advance()
		}
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if !p.consume(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

// document walks a whole document: an optional XML declaration, then
// exactly one element among comments, PIs and a DOCTYPE.
func (p *parser) document() error {
	if p.hasPrefix("<?xml") {
		if err := p.skipPI(); err != nil {
			return err
		}
	}
	seenRoot := false
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		var err error
		switch {
		case p.hasPrefix("<!--"):
			err = p.comment()
		case p.hasPrefix("<!DOCTYPE"):
			err = p.skipDoctype()
		case p.hasPrefix("<?"):
			err = p.pi()
		case p.peek() == '<':
			if seenRoot {
				return p.errf("multiple document elements")
			}
			err = p.element()
			seenRoot = true
		default:
			return p.errf("content outside document element")
		}
		if err != nil {
			return err
		}
	}
	if !seenRoot {
		return p.errf("no document element")
	}
	return nil
}

// element walks one element, from its '<' through its end tag.
func (p *parser) element() error {
	start := p.pos
	if err := p.expect("<"); err != nil {
		return err
	}
	b, err := p.rawName()
	if err != nil {
		return err
	}
	rawName := string(b)
	nsMark := len(p.ns)
	defer func() { p.ns = p.ns[:nsMark] }()

	attrs := p.attrs[:0]
	for {
		p.skipSpace()
		if p.eof() {
			return p.errf("unterminated start tag <%s>", rawName)
		}
		c := p.peek()
		if c == '>' || c == '/' {
			break
		}
		b, err := p.rawName()
		if err != nil {
			return err
		}
		aname := string(b)
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return err
		}
		p.skipSpace()
		aval, err := p.parseAttrValue()
		if err != nil {
			return err
		}
		// Namespace declarations take effect immediately for this element.
		switch {
		case aname == "xmlns":
			p.ns = append(p.ns, nsBinding{prefix: "", uri: aval})
		case strings.HasPrefix(aname, "xmlns:"):
			px := aname[len("xmlns:"):]
			if aval == "" {
				return p.errf("cannot undeclare prefix %q with empty URI", px)
			}
			p.ns = append(p.ns, nsBinding{prefix: px, uri: aval})
		default:
			for i := range attrs {
				if attrs[i].raw == aname {
					return p.errf("duplicate attribute %q", aname)
				}
			}
			attrs = append(attrs, attr{raw: aname, value: aval})
		}
	}
	p.attrs = attrs[:0] // keep the grown capacity for nested start tags

	prefix, local, err := splitQName(rawName)
	if err != nil {
		return p.errf("%v", err)
	}
	uri, ok := p.lookup(prefix)
	if !ok {
		return p.errf("undeclared namespace prefix %q", prefix)
	}
	for i := range attrs {
		aprefix, alocal, err := splitQName(attrs[i].raw)
		if err != nil {
			return p.errf("%v", err)
		}
		auri := ""
		if aprefix != "" { // unprefixed attributes are in no namespace
			auri, ok = p.lookup(aprefix)
			if !ok {
				return p.errf("undeclared namespace prefix %q", aprefix)
			}
		}
		attrs[i].name = Name{Space: auri, Prefix: aprefix, Local: alocal}
	}
	name := Name{Space: uri, Prefix: prefix, Local: local}
	p.h.start(name, attrs, p.ns[:nsMark])

	if !p.consume("/>") {
		if err := p.expect(">"); err != nil {
			return err
		}
		if err := p.content(name); err != nil {
			return err
		}
		closeName, err := p.rawName()
		if err != nil {
			return err
		}
		if string(closeName) != rawName {
			return p.errf("mismatched end tag </%s>, expected </%s>", closeName, rawName)
		}
		p.skipSpace()
		if err := p.expect(">"); err != nil {
			return err
		}
	}
	p.h.end(p.src[start:p.pos])
	return nil
}

// content walks element content up to (and consuming) the "</" of the
// matching end tag.
func (p *parser) content(name Name) error {
	for {
		if p.eof() {
			return p.errf("unterminated element <%s>", name)
		}
		var err error
		switch {
		case p.hasPrefix("</"):
			p.flushText()
			p.consume("</")
			return nil
		case p.hasPrefix("<!--"):
			p.flushText()
			err = p.comment()
		case p.hasPrefix("<![CDATA["):
			err = p.cdata()
		case p.hasPrefix("<?"):
			p.flushText()
			err = p.pi()
		case p.peek() == '<':
			p.flushText()
			err = p.element()
		case p.peek() == '&':
			var r string
			r, err = p.parseReference()
			p.text = append(p.text, r...)
		default:
			// A run of character data, up to the next markup or reference.
			run := p.src[p.pos:]
			if n := bytes.IndexByte(run, '<'); n >= 0 {
				run = run[:n]
			}
			if n := bytes.IndexByte(run, '&'); n >= 0 {
				run = run[:n]
			}
			p.text = append(p.text, run...)
			p.advanceN(len(run))
		}
		if err != nil {
			return err
		}
	}
}

func (p *parser) flushText() {
	if len(p.text) > 0 {
		p.h.text(p.text)
		p.text = p.text[:0]
	}
}

func (p *parser) cdata() error {
	p.consume("<![CDATA[")
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("]]>") {
			p.text = append(p.text, p.src[start:p.pos]...)
			p.consume("]]>")
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated CDATA section")
}

func (p *parser) comment() error {
	p.consume("<!--")
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("-->") {
			data := p.src[start:p.pos]
			if bytes.Contains(data, []byte("--")) {
				return p.errf("'--' not allowed inside comment")
			}
			p.consume("-->")
			p.h.comment(data)
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated comment")
}

func (p *parser) pi() error {
	p.consume("<?")
	b, err := p.rawName()
	if err != nil {
		return err
	}
	target := string(b)
	if strings.EqualFold(target, "xml") {
		return p.errf("misplaced XML declaration")
	}
	p.skipSpace()
	start := p.pos
	for !p.eof() {
		if p.hasPrefix("?>") {
			data := p.src[start:p.pos]
			p.consume("?>")
			p.h.pi(target, data)
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated processing instruction")
}

// treeBuilder is the handler that builds a Node tree.
type treeBuilder struct {
	open []*Node // innermost last; open[0] is the document or a holder
}

func (b *treeBuilder) add(n *Node) {
	parent := b.open[len(b.open)-1]
	n.Parent = parent
	parent.Children = append(parent.Children, n)
}

func (b *treeBuilder) start(name Name, attrs []attr, _ []nsBinding) {
	el := &Node{Kind: ElementNode, Name: InternName(name)}
	for _, a := range attrs {
		el.Attrs = append(el.Attrs, &Node{Kind: AttributeNode, Name: InternName(a.name), Data: a.value, Parent: el})
	}
	b.add(el)
	b.open = append(b.open, el)
}

func (b *treeBuilder) end([]byte) { b.open = b.open[:len(b.open)-1] }

func (b *treeBuilder) text(data []byte) { b.add(&Node{Kind: TextNode, Data: string(data)}) }

func (b *treeBuilder) comment(data []byte) { b.add(&Node{Kind: CommentNode, Data: string(data)}) }

func (b *treeBuilder) pi(target string, data []byte) {
	b.add(&Node{Kind: ProcessingInstructionNode, Name: InternName(Name{Local: target}), Data: string(data)})
}

func (p *parser) skipDoctype() error {
	if err := p.expect("<!DOCTYPE"); err != nil {
		return err
	}
	depth := 1
	for !p.eof() {
		c := p.advance()
		switch c {
		case '<':
			depth++
		case '>':
			depth--
			if depth == 0 {
				return nil
			}
		case '[':
			return p.errf("DOCTYPE internal subsets are not supported")
		}
	}
	return p.errf("unterminated DOCTYPE")
}

func (p *parser) skipPI() error {
	for !p.eof() {
		if p.consume("?>") {
			return nil
		}
		p.advance()
	}
	return p.errf("unterminated processing instruction")
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// rawName reads a lexical QName (prefix:local) without resolving it.
func (p *parser) rawName() ([]byte, error) {
	if p.eof() || !isNameStart(p.peek()) {
		return nil, p.errf("expected name")
	}
	start := p.pos
	for !p.eof() && isNameChar(p.peek()) {
		p.advance()
	}
	return p.src[start:p.pos], nil
}

func splitQName(raw string) (prefix, local string, err error) {
	i := strings.IndexByte(raw, ':')
	if i < 0 {
		return "", raw, nil
	}
	prefix, local = raw[:i], raw[i+1:]
	if prefix == "" || local == "" || strings.Contains(local, ":") {
		return "", "", fmt.Errorf("malformed QName %q", raw)
	}
	return prefix, local, nil
}

func (p *parser) lookup(prefix string) (string, bool) {
	if prefix == "xml" {
		return xmlNamespace, true
	}
	for i := len(p.ns) - 1; i >= 0; i-- {
		if p.ns[i].prefix == prefix {
			return p.ns[i].uri, true
		}
	}
	if prefix == "" {
		return "", true // default namespace undeclared = no namespace
	}
	return "", false
}

func (p *parser) parseAttrValue() (string, error) {
	if p.eof() {
		return "", p.errf("expected attribute value")
	}
	quote := p.peek()
	if quote != '"' && quote != '\'' {
		return "", p.errf("attribute value must be quoted")
	}
	p.advance()
	var sb strings.Builder
	for {
		if p.eof() {
			return "", p.errf("unterminated attribute value")
		}
		c := p.peek()
		switch c {
		case quote:
			p.advance()
			return sb.String(), nil
		case '<':
			return "", p.errf("'<' not allowed in attribute value")
		case '&':
			r, err := p.parseReference()
			if err != nil {
				return "", err
			}
			sb.WriteString(r)
		default:
			sb.WriteByte(p.advance())
		}
	}
}

func (p *parser) parseReference() (string, error) {
	if err := p.expect("&"); err != nil {
		return "", err
	}
	start := p.pos
	for !p.eof() && p.peek() != ';' {
		if p.pos-start > 12 {
			return "", p.errf("unterminated entity reference")
		}
		p.advance()
	}
	if p.eof() {
		return "", p.errf("unterminated entity reference")
	}
	name := string(p.src[start:p.pos])
	p.advance() // ';'
	switch name {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "apos":
		return "'", nil
	case "quot":
		return "\"", nil
	}
	if strings.HasPrefix(name, "#") {
		num := name[1:]
		base := 10
		if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
			num, base = num[1:], 16
		}
		cp, err := strconv.ParseUint(num, base, 32)
		if err != nil || !utf8.ValidRune(rune(cp)) || cp == 0 {
			return "", p.errf("invalid character reference &%s;", name)
		}
		return string(rune(cp)), nil
	}
	return "", p.errf("unknown entity &%s;", name)
}
