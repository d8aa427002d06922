package xmldom

import "strings"

// EscapeText escapes character data for element content.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "<>&") {
		return s
	}
	return string(AppendEscapedText(nil, s))
}

// EscapeAttr escapes character data for a double-quoted attribute value.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, `<&"`+"\n\t") {
		return s
	}
	return string(AppendEscapedAttr(nil, s))
}

// Sealed reports whether the tree has been sealed (document order assigned).
func (n *Node) Sealed() bool { return n.seq != 0 }

// FirstChildElement returns the first child element with the given local
// name (any namespace), or nil.
func (n *Node) FirstChildElement(local string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name.Local == local {
			return c
		}
	}
	return nil
}
