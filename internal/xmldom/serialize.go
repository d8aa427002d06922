package xmldom

import (
	"strings"
)

// Serialize renders the subtree rooted at n back to XML text. Namespace
// declarations are re-synthesized from the expanded names: a binding is
// emitted on the outermost element that needs it. The output of
// Serialize(Parse(x)) is structurally equal to x (attribute order and
// namespace prefix choices are preserved where possible).
func Serialize(n *Node) string {
	return string(AppendSerialize(nil, n))
}

// AppendSerialize appends the XML text of the subtree rooted at n to dst
// and returns the extended buffer. It is the allocation-free core of
// Serialize: callers on hot paths (message persistence, gateway sends)
// hand it a pooled or pre-sized buffer and serialization of a
// namespace-normalized tree performs no allocation beyond buffer growth.
func AppendSerialize(dst []byte, n *Node) []byte {
	s := serializer{buf: dst}
	s.node(n, nsScope{})
	return s.buf
}

// nsScope tracks prefix→URI bindings in scope during serialization.
type nsScope struct {
	bindings []nsBinding
}

func (s nsScope) lookup(prefix string) (string, bool) {
	if prefix == "xml" {
		return xmlNamespace, true
	}
	for i := len(s.bindings) - 1; i >= 0; i-- {
		if s.bindings[i].prefix == prefix {
			return s.bindings[i].uri, true
		}
	}
	if prefix == "" {
		return "", true
	}
	return "", false
}

func (s nsScope) with(prefix, uri string) nsScope {
	nb := make([]nsBinding, len(s.bindings), len(s.bindings)+1)
	copy(nb, s.bindings)
	return nsScope{bindings: append(nb, nsBinding{prefix: prefix, uri: uri})}
}

type serializer struct {
	buf []byte
}

func (s *serializer) str(v string) { s.buf = append(s.buf, v...) }
func (s *serializer) byte(c byte)  { s.buf = append(s.buf, c) }
func (s *serializer) name(n Name) {
	if n.Prefix != "" {
		s.str(n.Prefix)
		s.byte(':')
	}
	s.str(n.Local)
}

func (s *serializer) node(n *Node, scope nsScope) {
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			s.node(c, scope)
		}
	case ElementNode:
		s.element(n, scope)
	case TextNode:
		s.buf = AppendEscapedText(s.buf, n.Data)
	case CommentNode:
		s.str("<!--")
		s.str(n.Data)
		s.str("-->")
	case ProcessingInstructionNode:
		s.str("<?")
		s.str(n.Name.Local)
		if n.Data != "" {
			s.byte(' ')
			s.str(n.Data)
		}
		s.str("?>")
	case AttributeNode:
		// A detached attribute serializes as name="value".
		s.name(n.Name)
		s.str(`="`)
		s.buf = AppendEscapedAttr(s.buf, n.Data)
		s.byte('"')
	}
}

func (s *serializer) element(n *Node, scope nsScope) {
	// Determine which namespace declarations this element must emit.
	type decl struct{ prefix, uri string }
	var decls []decl
	need := func(prefix, uri string) {
		if got, ok := scope.lookup(prefix); ok && got == uri {
			return
		}
		for _, d := range decls {
			if d.prefix == prefix {
				return
			}
		}
		decls = append(decls, decl{prefix, uri})
		scope = scope.with(prefix, uri)
	}
	need(n.Name.Prefix, n.Name.Space)
	for _, a := range n.Attrs {
		if a.Name.Space != "" {
			need(a.Name.Prefix, a.Name.Space)
		}
	}

	s.byte('<')
	s.name(n.Name)
	for _, d := range decls {
		s.byte(' ')
		if d.prefix == "" {
			s.str("xmlns")
		} else {
			s.str("xmlns:")
			s.str(d.prefix)
		}
		s.str(`="`)
		s.buf = AppendEscapedAttr(s.buf, d.uri)
		s.byte('"')
	}
	for _, a := range n.Attrs {
		s.byte(' ')
		s.name(a.Name)
		s.str(`="`)
		s.buf = AppendEscapedAttr(s.buf, a.Data)
		s.byte('"')
	}
	if len(n.Children) == 0 {
		s.str("/>")
		return
	}
	s.byte('>')
	for _, c := range n.Children {
		s.node(c, scope)
	}
	s.str("</")
	s.name(n.Name)
	s.byte('>')
}

// AppendEscapedText appends s escaped for element content.
func AppendEscapedText(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, "<>&") {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '&':
			dst = append(dst, "&amp;"...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// AppendEscapedAttr appends s escaped for a double-quoted attribute value.
func AppendEscapedAttr(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, `<&"`+"\n\t") {
		return append(dst, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			dst = append(dst, "&lt;"...)
		case '&':
			dst = append(dst, "&amp;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '\n':
			dst = append(dst, "&#10;"...)
		case '\t':
			dst = append(dst, "&#9;"...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}
