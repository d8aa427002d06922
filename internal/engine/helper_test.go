package engine

import "demaq/internal/xmldom"

type docNode = xmldom.Node

func parseDoc(src string) (*xmldom.Node, error) { return xmldom.ParseString(src) }

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
