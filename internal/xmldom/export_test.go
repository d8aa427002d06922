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
