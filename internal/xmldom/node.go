// Package xmldom implements the XML document model used throughout Demaq:
// a lightweight, namespace-aware node tree with a from-scratch parser and
// serializer. It is the storage and processing representation for all
// messages, master data and query results.
//
// The model deliberately follows the needs of the XQuery data model rather
// than the W3C DOM API: nodes are immutable after construction (Demaq
// queues are append-only, messages are never modified in place), document
// order is materialized so node sequences can be sorted and deduplicated
// cheaply, and the string-value of a subtree is computed without
// intermediate allocation where possible.
package xmldom

import (
	"sort"
	"strings"
	"sync/atomic"
)

// NodeKind distinguishes the node types of the model.
type NodeKind uint8

// The node kinds supported by the model. There is no separate namespace
// node kind; namespace bindings are resolved at parse/build time and
// recorded in each Name.
const (
	DocumentNode NodeKind = iota + 1
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	ProcessingInstructionNode
)

// String returns the XPath-style name of the node kind.
func (k NodeKind) String() string {
	switch k {
	case DocumentNode:
		return "document-node()"
	case ElementNode:
		return "element()"
	case AttributeNode:
		return "attribute()"
	case TextNode:
		return "text()"
	case CommentNode:
		return "comment()"
	case ProcessingInstructionNode:
		return "processing-instruction()"
	}
	return "unknown()"
}

// Name is an expanded XML name: a namespace URI, the original prefix (kept
// only for serialization fidelity) and the local part.
type Name struct {
	Space  string // namespace URI ("" = no namespace)
	Prefix string // original lexical prefix, informational
	Local  string
}

// String renders the lexical form of the name.
func (n Name) String() string {
	if n.Prefix != "" {
		return n.Prefix + ":" + n.Local
	}
	return n.Local
}

// docSeq numbers documents globally so that nodes from different trees have
// a stable, total document order (required for union semantics).
var docSeq atomic.Uint64

// Node is a node in an XML tree. The zero value is not useful; use Parse or
// a Builder to obtain nodes.
//
// Immutability contract: once a tree is sealed (Parse, Builder.Done and
// Clone seal automatically), it is deeply immutable. Fields are exported
// for read access only; no code may assign to Kind, Name, Data, Parent,
// Children or Attrs of a sealed node, and all package xquery evaluation
// honors this — axes traverse, atomization reads string values, and
// constructors deep-copy (Builder.Subtree) instead of re-parenting. The
// msgstore document cache relies on the contract to hand one shared *Node
// to concurrent rule evaluations without locking; the -race test
// msgstore.TestDocCacheSharedEvaluationRace guards it. Code that needs a
// mutable tree must work on a Clone.
type Node struct {
	Kind     NodeKind
	Name     Name    // element/attribute name; PI target in Local
	Data     string  // text/comment/attribute/PI content
	Parent   *Node   // nil for document nodes and detached attributes
	Children []*Node // document/element children
	Attrs    []*Node // element attributes, in declaration order

	ord uint64 // position in document order, assigned by seal()
	seq uint64 // owning document sequence number
}

// Document returns the root document node of the tree containing n, or n's
// topmost ancestor if the tree is a fragment without a document node.
func (n *Node) Document() *Node {
	cur := n
	for cur.Parent != nil {
		cur = cur.Parent
	}
	return cur
}

// Root returns the first element child of the document node, i.e. the
// document element, or nil if there is none. Called on a non-document node
// it returns the document element of the owning tree.
func (n *Node) Root() *Node {
	doc := n.Document()
	for _, c := range doc.Children {
		if c.Kind == ElementNode {
			return c
		}
	}
	if doc.Kind == ElementNode {
		return doc
	}
	return nil
}

// StringValue computes the XPath string-value of the node: concatenated
// descendant text for documents and elements, Data for the rest.
func (n *Node) StringValue() string {
	switch n.Kind {
	case DocumentNode, ElementNode:
		var sb strings.Builder
		n.appendText(&sb)
		return sb.String()
	default:
		return n.Data
	}
}

func (n *Node) appendText(sb *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case TextNode:
			sb.WriteString(c.Data)
		case ElementNode:
			c.appendText(sb)
		}
	}
}

// Attr returns the value of the attribute with the given local name in no
// namespace, and whether it exists.
func (n *Node) Attr(local string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name.Space == "" && a.Name.Local == local {
			return a.Data, true
		}
	}
	return "", false
}

// ChildElements returns the element children of n.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Before reports whether n precedes other in document order. Nodes from
// different documents are ordered by document creation sequence, which is
// arbitrary but stable, as XQuery requires.
func (n *Node) Before(other *Node) bool {
	if n.seq != other.seq {
		return n.seq < other.seq
	}
	return n.ord < other.ord
}

// Seal assigns document order positions to every node of the tree rooted at
// n and stamps a fresh document sequence number. It must be called exactly
// once after a tree is fully constructed; Parse and Builder do so
// automatically. Attributes order directly after their element.
func (n *Node) Seal() {
	seq := docSeq.Add(1)
	var ord uint64
	var walk func(nd *Node)
	walk = func(nd *Node) {
		nd.seq = seq
		ord++
		nd.ord = ord
		for _, a := range nd.Attrs {
			a.seq = seq
			ord++
			a.ord = ord
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(n)
}

// Clone returns a deep copy of the subtree rooted at n, detached from any
// parent, sealed as a fresh tree. Cloning an element or text node wraps no
// document node around it; callers that need a document should use
// CloneAsDocument.
func (n *Node) Clone() *Node {
	c := n.cloneRec(nil)
	c.Seal()
	return c
}

// CloneAsDocument deep-copies the subtree and wraps it in a new document
// node, which is the representation used when a constructed element becomes
// a message payload.
func (n *Node) CloneAsDocument() *Node {
	if n.Kind == DocumentNode {
		return n.Clone()
	}
	doc := &Node{Kind: DocumentNode}
	c := n.cloneRec(doc)
	doc.Children = []*Node{c}
	doc.Seal()
	return doc
}

func (n *Node) cloneRec(parent *Node) *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Data: n.Data, Parent: parent}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]*Node, len(n.Attrs))
		for i, a := range n.Attrs {
			ac := &Node{Kind: AttributeNode, Name: a.Name, Data: a.Data, Parent: c}
			c.Attrs[i] = ac
		}
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.cloneRec(c)
		}
	}
	return c
}

// DeepEqual reports structural equality of two subtrees: same kind, name,
// data, attributes (order-insensitive, as XML attribute order is not
// significant) and children (order-sensitive).
func DeepEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name.Space != b.Name.Space || a.Name.Local != b.Name.Local {
		return false
	}
	if a.Kind == TextNode || a.Kind == CommentNode || a.Kind == AttributeNode || a.Kind == ProcessingInstructionNode {
		if a.Data != b.Data {
			return false
		}
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for _, aa := range a.Attrs {
		found := false
		for _, ba := range b.Attrs {
			if aa.Name.Space == ba.Name.Space && aa.Name.Local == ba.Name.Local && aa.Data == ba.Data {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !DeepEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// SortDocOrder sorts nodes into document order and removes duplicates
// (pointer identity), implementing the node-sequence normalization required
// by path and union expressions.
func SortDocOrder(nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Before(nodes[j]) })
	out := nodes[:1]
	for _, nd := range nodes[1:] {
		if nd != out[len(out)-1] {
			out = append(out, nd)
		}
	}
	return out
}
