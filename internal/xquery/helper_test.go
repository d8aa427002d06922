package xquery

import (
	"demaq/internal/xmldom"
	"demaq/internal/xpath"
)

// Aliases used by tests to keep call sites short.
type xpathExpr = xpath.Expr

func parseExpr(src string) (xpath.Expr, error) { return xpath.ParseExprString(src) }

// childElement returns the first child element of n with the given local
// name (any namespace), or nil.
func childElement(n *xmldom.Node, local string) *xmldom.Node {
	for _, c := range n.Children {
		if c.Kind == xmldom.ElementNode && c.Name.Local == local {
			return c
		}
	}
	return nil
}
