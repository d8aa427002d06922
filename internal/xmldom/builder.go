package xmldom

// Builder constructs XML trees programmatically. It is used by the XQuery
// element constructors and by the engine when synthesizing system messages
// (errors, acknowledgements). The resulting tree is sealed on Done.
//
//	b := NewBuilder()
//	b.StartElement(Name{Local: "order"})
//	b.Attribute(Name{Local: "id"}, "42")
//	b.Text("payload")
//	b.EndElement()
//	doc := b.Done()
type Builder struct {
	doc   *Node
	stack []*Node
}

// NewBuilder returns a builder positioned at a fresh document node.
func NewBuilder() *Builder {
	doc := &Node{Kind: DocumentNode}
	return &Builder{doc: doc, stack: []*Node{doc}}
}

func (b *Builder) top() *Node { return b.stack[len(b.stack)-1] }

// StartElement opens a new element as a child of the current node.
func (b *Builder) StartElement(name Name) *Builder {
	el := &Node{Kind: ElementNode, Name: InternName(name), Parent: b.top()}
	b.top().Children = append(b.top().Children, el)
	b.stack = append(b.stack, el)
	return b
}

// EndElement closes the current element.
func (b *Builder) EndElement() *Builder {
	if len(b.stack) <= 1 {
		panic("xmldom: EndElement without matching StartElement")
	}
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// Attribute adds an attribute to the current element. Duplicate names
// overwrite the previous value, matching constructor semantics.
func (b *Builder) Attribute(name Name, value string) *Builder {
	el := b.top()
	if el.Kind != ElementNode {
		panic("xmldom: Attribute outside element")
	}
	name = InternName(name)
	for _, a := range el.Attrs {
		if a.Name.Space == name.Space && a.Name.Local == name.Local {
			a.Data = value
			return b
		}
	}
	el.Attrs = append(el.Attrs, &Node{Kind: AttributeNode, Name: name, Data: value, Parent: el})
	return b
}

// Text appends character data to the current node, merging with a
// preceding text node if one exists (the data model never contains two
// adjacent text nodes).
func (b *Builder) Text(data string) *Builder {
	if data == "" {
		return b
	}
	parent := b.top()
	if n := len(parent.Children); n > 0 && parent.Children[n-1].Kind == TextNode {
		parent.Children[n-1].Data += data
		return b
	}
	parent.Children = append(parent.Children, &Node{Kind: TextNode, Data: data, Parent: parent})
	return b
}

// Subtree deep-copies an existing node (and its descendants) into the
// current position. Attribute nodes are attached as attributes of the
// current element; other kinds become children. This implements the
// node-copy semantics of enclosed expressions in constructors.
func (b *Builder) Subtree(n *Node) *Builder {
	parent := b.top()
	if n.Kind == AttributeNode {
		return b.Attribute(n.Name, n.Data)
	}
	if n.Kind == DocumentNode {
		for _, c := range n.Children {
			b.Subtree(c)
		}
		return b
	}
	if n.Kind == TextNode {
		return b.Text(n.Data)
	}
	c := n.cloneRec(parent)
	parent.Children = append(parent.Children, c)
	return b
}

// Element is a convenience for a leaf element with text content.
func (b *Builder) Element(name Name, text string) *Builder {
	b.StartElement(name)
	b.Text(text)
	b.EndElement()
	return b
}

// Done seals and returns the document. The builder must be balanced.
func (b *Builder) Done() *Node {
	if len(b.stack) != 1 {
		panic("xmldom: unbalanced builder")
	}
	b.doc.Seal()
	return b.doc
}
